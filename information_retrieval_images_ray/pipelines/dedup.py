"""Deduplication pipelines: exact, n-gram Jaccard, MinHash-LSH, SimHash.

The reference's only dedup is exact content-hash identity
(UNIQUE(md5) + presence checks, /root/reference/db.py:32,114-116); at
training-data scale we add near-dup families. All candidate generation
is expressed as shuffles on *derived small keys* (hash / band / shingle),
never on content — the standard web-scale layout:

  exact:     md5(text) -> groupby(hash) -> keep min doc_id
  ngram:     explode distinct shingles (each row carrying its doc's
             distinct-shingle count) -> groupby(shingle) -> pairwise
             candidates -> groupby(pair) -> |intersection| + sizes ->
             Jaccard, all inside the pipeline (nothing corpus-sized
             ever reaches the driver)
  minhash:   per-doc signature (vectorized perms) -> THIN band rows
             (band_id, band_hash, doc_id — the signature itself never
             rides the band exchange) -> groupby(band, band_hash) ->
             candidate pairs -> pair-dedup groupby -> hash-join the
             candidates back against the signature table (both sides
             keyed by doc id) -> signature-estimated Jaccard (fraction
             of agreeing minhash values — unbiased estimator of true
             Jaccard with std <= 1/(2*sqrt(num_perm))) -> threshold
  simhash:   64-bit weighted fingerprint -> 4x16-bit band blocking
             (pigeonhole: hamming<=3 pairs share >=1 of 4 bands) -> verify

Skew note: a shingle/band shared by m docs emits m(m-1)/2 pairs; hot
shingles are capped by ``max_group`` (default DEFAULT_MAX_GROUP,
dropped-shingle count surfaced via a sentinel aggregate and logged,
never silent) — at 10^12 docs a boilerplate shingle would otherwise
emit quadrillions of pairs. The cutoff is part of the operator's
contract and mirrored in the SQL oracle.
"""

from __future__ import annotations

import hashlib
import logging
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Min, Sum

from ..functions.hashing import md5_u64, stable_u64
from ..functions.tokenizer import get_tokenizer
from .analysis import e6

logger = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# exact dedup


def exact_dedup_groups(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """One row per distinct content: (content_md5, keep_doc_id = min,
    dup_count). Hash-partitioned shuffle on the digest, never on text."""

    def add_hash(batch: pa.Table) -> pa.Table:
        hs = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch[text_col].to_pylist()
        ]
        return pa.table(
            {"content_md5": pa.array(hs, pa.string()), "doc_id": batch["doc_id"]}
        )

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("content_md5")
        .aggregate(Min("doc_id", alias_name="keep_doc_id"), Count(alias_name="dup_count"))
    )


def exact_dedup(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """The deduplicated corpus itself: deterministic first (min doc_id)
    row per distinct content."""

    def add_hash(batch: pa.Table) -> pa.Table:
        hs = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch[text_col].to_pylist()
        ]
        return batch.append_column("content_md5", pa.array(hs, pa.string()))

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("doc_id").head(1)

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("content_md5")
        .map_groups(keep_first, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# word n-gram shingles


def _shingles(tokens: list[str], n: int) -> set[str]:
    if len(tokens) < n:
        return set()
    return {" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}


DEFAULT_MAX_GROUP = 1024  # hot-shingle pair-emission cap (see module doc)


def shingle_rows(
    ds: ray.data.Dataset, n: int = 5, tokenizer: str = "simple",
    with_counts: bool = False,
) -> ray.data.Dataset:
    """One row per (doc, DISTINCT shingle). With ``with_counts`` each
    row also carries its doc's distinct-shingle count ``n_sh`` — known
    for free at emission time, which is what lets the Jaccard
    denominator travel WITH the data instead of via a driver-side
    per-doc dict (O(corpus) memory) or an extra join."""
    tok = get_tokenizer(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        ids, sh, cnt = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            shs = _shingles(tok(text or ""), n)
            for s in shs:
                ids.append(did)
                sh.append(s)
                cnt.append(len(shs))
        cols = {"doc_id": pa.array(ids, pa.int64()), "shingle": pa.array(sh, pa.string())}
        if with_counts:
            cols["n_sh"] = pa.array(cnt, pa.int64())
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """All doc pairs sharing >= 1 n-gram, with exact Jaccard over the
    docs' DISTINCT shingle sets. Returns (doc_a, doc_b, common,
    jaccard_e6) for jaccard >= threshold.

    Fully distributed — the driver sees only the thresholded result
    pairs: shingle explode (each row carrying its doc's shingle count)
    -> per-shingle pair emission (groupby, hot shingles capped at
    ``max_group`` docs; the dropped-shingle count rides a sentinel key
    through the same aggregate and is logged) -> per-pair groupby
    computing |intersection| + Jaccard from the carried sizes.
    """
    sh = shingle_rows(ds, n, tokenizer, with_counts=True)

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["doc_id"].to_numpy(np.int64))
        ids = g["doc_id"].to_numpy(np.int64)[order]
        szs = g["n_sh"].to_numpy(np.int64)[order]
        if max_group is not None and len(ids) > max_group:
            # sentinel: one (-1, -1) row per dropped hot shingle; the
            # pair groupby COUNTs them into a single "dropped" row
            return pd.DataFrame(
                {"doc_a": [-1], "doc_b": [-1], "na": [0], "nb": [0]}
            ).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame(
            {"doc_a": ids[a], "doc_b": ids[b], "na": szs[a], "nb": szs[b]}
        )

    pairs = (
        sh.groupby("shingle")
        .map_groups(emit_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(
            Count(alias_name="common"),
            Min("na", alias_name="na"),
            Min("nb", alias_name="nb"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        t = batch.to_pandas()
        sentinel = t["doc_a"].to_numpy() < 0
        drop = t[sentinel]  # one row: common = number of dropped shingles
        t = t[~sentinel]
        na = t["na"].to_numpy(np.float64)
        nb = t["nb"].to_numpy(np.float64)
        common = t["common"].to_numpy(np.float64)
        jac = common / np.maximum(na + nb - common, 1.0)
        keep = jac >= threshold
        out = {
            "doc_a": t["doc_a"].to_numpy(np.int64)[keep].tolist(),
            "doc_b": t["doc_b"].to_numpy(np.int64)[keep].tolist(),
            "common": t["common"].to_numpy(np.int64)[keep].tolist(),
            "jaccard_e6": e6(jac[keep]).tolist(),
        }
        for _, r in drop.iterrows():  # pass the sentinel through to the driver
            out["doc_a"].append(-1)
            out["doc_b"].append(-1)
            out["common"].append(int(r["common"]))
            out["jaccard_e6"].append(0)
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})

    out = pairs.map_batches(finish, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"),
             "common": pd.Series(dtype="int64"), "jaccard_e6": pd.Series(dtype="int64")}
        )
    sentinel = out["doc_a"] < 0
    n_dropped = int(out.loc[sentinel, "common"].sum())
    if n_dropped:
        logger.warning("ngram_jaccard_pairs: %d hot shingles over max_group=%d "
                       "dropped from pair emission", n_dropped, max_group)
    return (
        out[~sentinel]
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
        .astype("int64")
    )


# ---------------------------------------------------------------------------
# train/eval contamination


def decontaminate(
    ds: ray.data.Dataset,
    n: int = 5,
    train: int = 80,
    val: int = 10,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """Eval-set decontamination check: TRAIN docs sharing >= 1 word
    n-gram with ANY TEST doc, plus the count of shared distinct
    shingles — the standard pre-training hygiene pass (n-gram collision
    decontamination, Brown et al. 2020 App. C). Split assignment is the
    engine's deterministic hash split (md5(doc_id) % 100: < train ->
    train, < train+val -> val, else test — analysis.split_summary), so
    the verdict is stable under reorder / resume / extend.

    Scale shape (fully vectorized — no per-group python): ONE tokenize
    pass emits distinct (doc_id, shingle_hash64, is_test) rows (val
    docs never enter the exchange — they cannot leak); a built-in
    groupby aggregate computes per-shingle (n_docs, n_test); the
    CONTAMINATED shingle set — carried by >= 1 test doc and by at most
    ``max_group`` docs total (the module-wide hot-skew contract,
    mirrored in the SQL oracle's HAVING cap) — is bounded by the EVAL
    set's shingle count, so it broadcasts (ray.put of a sorted u64
    array; the Bloom-filter seam applies beyond that); a second pass
    over the thin rows counts, per train doc, its shingles inside the
    broadcast set with one np.isin per batch. Shingles ride as
    md5-u64 hashes (64-bit collisions are ~(#shingles)^2 / 2^65 —
    negligible, and deterministic if they ever occur). Returns
    (doc_id, n_shared) sorted by doc_id."""
    import ray

    from ray.data.aggregate import Sum

    tok = get_tokenizer(tokenizer)
    cut_val = train + val

    def fn(batch: pa.Table) -> pa.Table:
        ids, sh, tst = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            b = md5_u64(str(did)) % 100
            if train <= b < cut_val:
                continue
            is_test = 1 if b >= cut_val else 0
            for s in _shingles(tok(text or ""), n):
                ids.append(did)
                sh.append(md5_u64(s))
                tst.append(is_test)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "sh": pa.array(sh, pa.uint64()),
                "is_test": pa.array(tst, pa.int64()),
            }
        )

    # The per-shingle row stream is corpus-token-sized and BOTH passes
    # read it; spill it to compressed temp parquet instead of pinning it
    # in the object store (a .materialize() here holds ~corpus-scale
    # plasma+disk at 100 TB). write_parquet streams with backpressure;
    # the two consumers then re-read from disk, not from plasma.
    import glob as _glob
    import shutil
    import tempfile

    spill_dir = tempfile.mkdtemp(prefix="decon_rows_", dir="/tmp")
    try:
        ds.map_batches(fn, batch_format="pyarrow").write_parquet(spill_dir)
        spill_files = sorted(_glob.glob(os.path.join(spill_dir, "*.parquet")))
        empty = pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "n_shared": pd.Series(dtype="int64")}
        )
        if not spill_files:
            return empty
        rows = ray.data.read_parquet(spill_files)
        test_stats = (
            rows.groupby("sh")
            .aggregate(Count(alias_name="n_sh"), Sum("is_test", alias_name="n_test"))
            .filter(expr="n_test >= 1")
            .to_pandas()
        )
        if test_stats.empty:
            return empty
        if max_group is not None:
            hot = int((test_stats["n_sh"] > max_group).sum())
            if hot:
                logger.warning("decontaminate: %d hot test-carried shingles over "
                               "max_group=%d dropped from the collision check",
                               hot, max_group)
            test_stats = test_stats[test_stats["n_sh"] <= max_group]
        contaminated = np.sort(test_stats["sh"].to_numpy(np.uint64))
        if not len(contaminated):
            return empty
        cont_ref = ray.put(contaminated)

        def count_shared(batch: pa.Table) -> pa.Table:
            cont = ray.get(cont_ref)  # plasma-shared per node
            tst = batch["is_test"].to_numpy(zero_copy_only=False)
            sh = batch["sh"].to_numpy(zero_copy_only=False)
            dids = batch["doc_id"].to_numpy(zero_copy_only=False)
            mask = (tst == 0) & (
                cont[np.minimum(np.searchsorted(cont, sh), len(cont) - 1)] == sh
            )
            uids, cnts = np.unique(dids[mask], return_counts=True)
            return pa.table(
                {
                    "doc_id": pa.array(uids, pa.int64()),
                    "c": pa.array(cnts.astype(np.int64), pa.int64()),
                }
            )

        out = (
            ray.data.read_parquet(spill_files)
            .map_batches(count_shared, batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(Sum("c", alias_name="n_shared"))
            .to_pandas()
        )
        if out.empty:
            return empty
        return (
            out.sort_values("doc_id").reset_index(drop=True).astype("int64")
        )
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# MinHash + LSH

_MERSENNE = np.uint64((1 << 61) - 1)


class MinHashStage:
    """Per-doc MinHash signature over word-shingle 64-bit hashes.

    num_perm permutations h_i(x) = (a_i*x + b_i) mod p (numpy uint64
    arithmetic, i.e. a_i*x + b_i wraps mod 2^64 before the mod-p),
    vectorized as a (num_perm, n_shingles) broadcast — one numpy
    matmul-shaped op per doc. Coefficients come from a fixed seed and
    the shingle hash is the md5-prefix ``md5_u64`` — signatures are
    process-independent AND reproducible in DuckDB (the
    q_minhash_neardup oracle mirrors this exact computation, wrap
    included, via HUGEINT arithmetic).
    """

    def __init__(self, num_perm: int = 64, shingle_n: int = 3, tokenizer: str = "simple"):
        rng = np.random.default_rng(12345)
        self.a = rng.integers(1, int(_MERSENNE), size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, int(_MERSENNE), size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_n = shingle_n
        self._tok = get_tokenizer(tokenizer)

    def signature(self, text: str) -> np.ndarray:
        sh = _shingles(self._tok(text or ""), self.shingle_n)
        if not sh:
            return np.full(self.num_perm, int(_MERSENNE), dtype=np.uint64)
        x = np.array([md5_u64(s) for s in sorted(sh)], dtype=np.uint64) % _MERSENNE
        with np.errstate(over="ignore"):
            hv = (self.a[:, None] * x[None, :] + self.b[:, None]) % _MERSENNE
        return hv.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = [self.signature(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "signature": pa.array([s.tolist() for s in sigs], pa.list_(pa.uint64())),
            }
        )


def minhash_signatures(
    ds: ray.data.Dataset, num_perm: int = 64, shingle_n: int = 3, tokenizer: str = "simple"
) -> ray.data.Dataset:
    return ds.map_batches(
        MinHashStage,
        fn_constructor_kwargs={
            "num_perm": num_perm, "shingle_n": shingle_n, "tokenizer": tokenizer
        },
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


def minhash_lsh_candidates(
    sigs: ray.data.Dataset, bands: int = 16, num_perm: int = 64
) -> ray.data.Dataset:
    """Band rows (band_id, band_hash, doc_id) -> groupby -> candidate
    pairs with ``n_bands`` = number of agreeing bands (no
    verification; see ``minhash_near_dups``)."""
    rows_per_band = num_perm // bands

    def band_rows(batch: pa.Table) -> pa.Table:
        bid, bh, did = [], [], []
        for doc, sig in zip(batch["doc_id"].to_pylist(), batch["signature"].to_pylist()):
            for b in range(bands):
                chunk = tuple(sig[b * rows_per_band : (b + 1) * rows_per_band])
                bid.append(b)
                bh.append(stable_u64(repr(chunk)))
                did.append(doc)
        return pa.table(
            {
                "band_id": pa.array(bid, pa.int32()),
                "band_hash": pa.array(bh, pa.uint64()),
                "doc_id": pa.array(did, pa.int64()),
            }
        )

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(np.unique(g["doc_id"].to_numpy(np.int64)))
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]})

    return (
        sigs.map_batches(band_rows, batch_format="pyarrow")
        .groupby(["band_id", "band_hash"])
        .map_groups(emit_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_bands"))
    )


def minhash_near_dups(
    ds: ray.data.Dataset,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """MinHash-LSH near-dup pipeline, fully distributed.

    Verification is **signature-estimated Jaccard** — the fraction of
    agreeing minhash values between the two signatures, an unbiased
    estimator of true Jaccard with std <= 1/(2*sqrt(num_perm)) — the
    standard web-scale form (Broder 1997; exact set intersection of
    candidate pairs does not distribute, since pair shingle sets would
    have to be co-shuffled per candidate). The layout keeps the band
    exchange THIN: band rows carry only (band_id, band_hash, doc_id)
    — never the signature, which at num_perm=64 x bands=16 would
    replicate 16x the signature bytes into the widest shuffle of the
    job. Candidate pairs out of the band buckets are deduped by a
    (doc_a, doc_b) groupby, then hash-joined back against the
    signature table (once per side) for the estimate; only pairs whose
    estimate clears ``threshold`` reach the driver. Exact-Jaccard
    semantics, when wanted, are ``ngram_jaccard_pairs``.

    The signature dataset is materialized once (it feeds the band
    stage AND both verify joins — at persistent-index scale this is
    the parquet signature checkpoint; in-session the object store
    holds it, ~8*num_perm bytes/doc).

    Hot bands are capped: a ``(band, band_hash)`` bucket holding more
    than ``max_group`` docs (a duplicate-heavy corpus puts ALL copies
    of the template in one bucket — O(N^2) pairs in one task) emits a
    sentinel row instead of pairs; the dropped-bucket count rides the
    pair aggregate and is logged, never silent (same contract as
    ngram_jaccard_pairs / winnow_overlap_pairs).
    """
    import pyarrow.compute as pc

    # signatures packed to a fixed-width binary column (8*num_perm
    # bytes, little-endian u64s): Ray's hash join doesn't carry list
    # payload columns, and the packed form is smaller anyway
    def to_bin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "sig": pa.array(
                    [
                        np.asarray(s, dtype=np.uint64).tobytes()
                        for s in batch["signature"].to_pylist()
                    ],
                    pa.binary(),
                ),
            }
        )

    sigs = (
        minhash_signatures(ds, num_perm, shingle_n, tokenizer)
        .map_batches(to_bin, batch_format="pyarrow")
        .materialize()
    )
    rows_per_band = num_perm // bands

    def band_rows(batch: pa.Table) -> pa.Table:
        bid, bh, did = [], [], []
        for doc, raw in zip(batch["doc_id"].to_pylist(), batch["sig"].to_pylist()):
            sig = np.frombuffer(raw, dtype=np.uint64)
            for b in range(bands):
                chunk = tuple(
                    int(v) for v in sig[b * rows_per_band : (b + 1) * rows_per_band]
                )
                bid.append(b)
                bh.append(stable_u64(repr(chunk)))
                did.append(doc)
        return pa.table(
            {
                "band_id": pa.array(bid, pa.int32()),
                "band_hash": pa.array(bh, pa.uint64()),
                "doc_id": pa.array(did, pa.int64()),
            }
        )

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(np.unique(g["doc_id"].to_numpy(np.int64)))
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
        if max_group is not None and len(ids) > max_group:
            # sentinel: one (-1, -1) row per dropped hot band bucket
            return pd.DataFrame({"doc_a": [-1], "doc_b": [-1]}).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]})

    # candidate pairs (deduped across bands); materialized so the
    # sentinel count and the verify branch don't re-run the band stage
    cand = (
        sigs.map_batches(band_rows, batch_format="pyarrow")
        .groupby(["band_id", "band_hash"])
        .map_groups(emit_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_buckets"))
        .materialize()
    )

    def only(pred):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pred(b["doc_a"]))

        return fn

    n_dropped = (
        cand.map_batches(only(lambda c: pc.less(c, 0)), batch_format="pyarrow").count()
    )
    if n_dropped:
        logger.warning("minhash_near_dups: %d hot band buckets over max_group=%d "
                       "dropped from verification", n_dropped, max_group)

    empty = pd.DataFrame(
        {"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"),
         "jaccard_e6": pd.Series(dtype="int64")}
    )
    pairs = cand.map_batches(
        only(lambda c: pc.greater_equal(c, 0)), batch_format="pyarrow"
    ).select_columns(["doc_a", "doc_b"])
    if pairs.count() == 0:
        return empty
    return _estimate_pair_jaccard(pairs, sigs, threshold)


def _estimate_pair_jaccard(
    pairs: ray.data.Dataset, sigs: ray.data.Dataset, threshold: float
) -> pd.DataFrame:
    """Signature-agreement Jaccard over candidate (doc_a, doc_b) pairs
    — shared by ``minhash_near_dups`` and ``check_against_store``.

    Attaches each side's signature with a union+groupby map-side join
    (one hash exchange per side, keyed by the doc id), then a
    vectorized agreement fraction inside the second group. The same
    tagged-union join shape extend_index uses for its content
    anti-join — NOT Dataset.join, whose 2.49 hash-shuffle aggregators
    flakily resolve keys against a sibling operator's schema when
    several hash exchanges share one session. ``sigs`` must cover
    every id on either side of ``pairs`` (doc_id, packed-binary sig).
    Returns (doc_a, doc_b, jaccard_e6) for estimates >= threshold,
    sorted."""

    def tag_pairs(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": b["doc_a"].cast(pa.int64()),
                "other": b["doc_b"].cast(pa.int64()),
                "sig_other": pa.array([None] * b.num_rows, pa.binary()),
                "sig": pa.array([None] * b.num_rows, pa.binary()),
            }
        )

    def tag_sigs(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": b["doc_id"].cast(pa.int64()),
                "other": pa.array(np.full(b.num_rows, -1, np.int64), pa.int64()),
                "sig_other": pa.array([None] * b.num_rows, pa.binary()),
                "sig": b["sig"],
            }
        )

    _empty_a = pa.table(
        {"key": pa.array([], pa.int64()), "other": pa.array([], pa.int64()),
         "sig_other": pa.array([], pa.binary()), "sig": pa.array([], pa.binary())}
    )

    def attach_a(g: pd.DataFrame) -> pa.Table:
        """Group key = doc_a: re-key every pair row by doc_b, carrying
        doc_a's signature along as sig_other."""
        mask = g["other"].to_numpy() < 0
        sig_rows, pr = g[mask], g[~mask]
        if len(sig_rows) == 0 or len(pr) == 0:
            return _empty_a
        s = sig_rows["sig"].iloc[0]
        return pa.table(
            {
                "key": pa.array(pr["other"].to_numpy(np.int64), pa.int64()),
                "other": pa.array(pr["key"].to_numpy(np.int64), pa.int64()),
                "sig_other": pa.array([s] * len(pr), pa.binary()),
                "sig": pa.array([None] * len(pr), pa.binary()),
            }
        )

    def verify_b(g: pd.DataFrame) -> pd.DataFrame:
        """Group key = doc_b: estimate against doc_b's signature."""
        empty = pd.DataFrame(
            {"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"),
             "jaccard_e6": pd.Series(dtype="int64")}
        )
        mask = g["other"].to_numpy() < 0
        sig_rows, pr = g[mask], g[~mask]
        if len(sig_rows) == 0 or len(pr) == 0:
            return empty
        sb = np.frombuffer(sig_rows["sig"].iloc[0], dtype=np.uint64)
        ma = np.stack(
            [np.frombuffer(x, dtype=np.uint64) for x in pr["sig_other"]]
        )
        est = (ma == sb[None, :]).mean(axis=1)
        keep = est >= threshold
        return pd.DataFrame(
            {
                "doc_a": pr["other"].to_numpy(np.int64)[keep],
                "doc_b": pr["key"].to_numpy(np.int64)[keep],
                "jaccard_e6": e6(est[keep]),
            }
        ).astype("int64")

    tagged = pairs.map_batches(tag_pairs, batch_format="pyarrow").union(
        sigs.map_batches(tag_sigs, batch_format="pyarrow")
    )
    with_a = tagged.groupby("key").map_groups(attach_a, batch_format="pandas")
    out = (
        with_a.union(sigs.map_batches(tag_sigs, batch_format="pyarrow"))
        .groupby("key")
        .map_groups(verify_b, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"),
             "jaccard_e6": pd.Series(dtype="int64")}
        )
    return (
        out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True).astype("int64")
    )


# ---------------------------------------------------------------------------
# SimHash


class SimHashStage:
    """64-bit SimHash over term hashes weighted by tf.

    Term hash is the md5-prefix ``md5_u64`` so the whole fingerprint —
    and therefore the q_simhash_neardup pair output — is exactly
    reproducible in DuckDB (the per-bit weighted sums are sums of
    int-valued float64s, so numpy and SQL agree bit-for-bit)."""

    def __init__(self, tokenizer: str = "simple"):
        self._tok = get_tokenizer(tokenizer)

    def simhash(self, text: str) -> int:
        toks = self._tok(text or "")
        if not toks:
            return 0
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        hashes = np.array([md5_u64(t) for t in tf], dtype=np.uint64)
        weights = np.array(list(tf.values()), dtype=np.float64)
        bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.float64)
        acc = ((bits * 2 - 1) * weights[:, None]).sum(axis=0)
        return int(sum(1 << i for i in range(64) if acc[i] > 0))

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = [self.simhash(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": pa.array(hs, pa.uint64())}
        )


def simhash_near_dups(
    ds: ray.data.Dataset, max_hamming: int = 3, tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """Near-dup pairs with hamming(simhash) <= max_hamming via 4-band
    blocking (pigeonhole: <=3 differing bits leave >=1 of 4 16-bit
    bands identical), then exact verification.

    Band buckets over ``max_group`` docs emit a logged sentinel instead
    of O(N^2) pairs (the ngram/winnow/minhash hot-key contract)."""
    sigs = ds.map_batches(
        SimHashStage, fn_constructor_kwargs={"tokenizer": tokenizer},
        batch_format="pyarrow", concurrency=(1, 4),
    )

    def band_rows(batch: pa.Table) -> pa.Table:
        bid, bh, did, sh = [], [], [], []
        for doc, h in zip(batch["doc_id"].to_pylist(), batch["simhash"].to_pylist()):
            for b in range(4):
                bid.append(b)
                bh.append((h >> (16 * b)) & 0xFFFF)
                did.append(doc)
                sh.append(h)
        return pa.table(
            {
                "band_id": pa.array(bid, pa.int32()),
                "band_val": pa.array(bh, pa.int32()),
                "doc_id": pa.array(did, pa.int64()),
                "simhash": pa.array(sh, pa.uint64()),
            }
        )

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("doc_id").sort_values("doc_id")
        ids = g["doc_id"].to_numpy(np.int64)
        hs = g["simhash"].to_numpy(np.uint64)
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []}).astype("int64")
        if max_group is not None and len(ids) > max_group:
            # sentinel: one (-1, -1) row per dropped hot band bucket
            return pd.DataFrame(
                {"doc_a": [-1], "doc_b": [-1], "hamming": [0]}
            ).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        x = hs[a] ^ hs[b]
        ham = np.array([bin(int(v)).count("1") for v in x], dtype=np.int64)
        keep = ham <= max_hamming
        return pd.DataFrame({"doc_a": ids[a][keep], "doc_b": ids[b][keep], "hamming": ham[keep]})

    pairs = (
        sigs.map_batches(band_rows, batch_format="pyarrow")
        .groupby(["band_id", "band_val"])
        .map_groups(emit, batch_format="pandas")
    ).to_pandas()
    if pairs.empty:
        return pd.DataFrame(
            {"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"),
             "hamming": pd.Series(dtype="int64")}
        )
    sentinel = pairs["doc_a"] < 0
    n_dropped = int(sentinel.sum())
    if n_dropped:
        logger.warning("simhash_near_dups: %d hot band buckets over max_group=%d "
                       "dropped from verification", n_dropped, max_group)
    return (
        pairs[~sentinel]
        .drop_duplicates(["doc_a", "doc_b"])
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
        .astype("int64")
    )


# ---------------------------------------------------------------------------
# winnowing fingerprints (Schleimer, Wilkerson & Aiken, SIGMOD 2003):
# rolling k-gram hashes -> min of every w-window -> a sparse (~2/(w+1)
# density) fingerprint set that still guarantees detection of any
# shared run of >= w+k-1 tokens. The scale form of "document
# fingerprinting": overlap candidate generation shuffles only the
# winnowed set, ~5-10x smaller than the full shingle explode.


def _md5_60(s: str) -> int:
    """60-bit int from the md5 hex prefix — chosen because DuckDB can
    mirror it exactly (CAST('0x'||substr(md5(s),1,15) AS BIGINT)), so
    the whole winnowing pipeline stays SQL-oracle-checkable."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:15], 16)


def _winnow_set(tokens: list[str], k: int, w: int) -> np.ndarray:
    """Distinct winnowed fingerprints of one doc (value-based simple
    winnowing: the min of every window of w consecutive k-gram hashes;
    docs with fewer than w k-grams contribute min-of-all)."""
    m = len(tokens) - k + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    hs = np.fromiter(
        (_md5_60(" ".join(tokens[i : i + k])) for i in range(m)),
        dtype=np.int64, count=m,
    )
    if m <= w:
        return np.array([hs.min()], dtype=np.int64)
    wins = np.lib.stride_tricks.sliding_window_view(hs, w).min(axis=1)
    return np.unique(wins)


def winnow_fingerprints(
    ds: ray.data.Dataset, k: int = 5, w: int = 4, tokenizer: str = "simple"
) -> ray.data.Dataset:
    """One row per (doc_id, distinct winnowed fingerprint)."""
    tok = get_tokenizer(tokenizer)

    def fn(batch: pa.Table) -> pa.Table:
        ids, fps = [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            for fp in _winnow_set(tok(text or ""), k, w):
                ids.append(did)
                fps.append(int(fp))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "fp": pa.array(fps, pa.int64())}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def winnow_doc_summary(
    ds: ray.data.Dataset, k: int = 5, w: int = 4, tokenizer: str = "simple"
) -> pd.DataFrame:
    """Per-doc (n_fp, min_fp) over the winnowed set — the compact
    document-fingerprint record."""
    fps = winnow_fingerprints(ds, k, w, tokenizer)
    out = (
        fps.groupby("doc_id")
        .aggregate(Count(alias_name="n_fp"), Min("fp", alias_name="min_fp"))
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


def winnow_overlap_pairs(
    ds: ray.data.Dataset,
    k: int = 5,
    w: int = 4,
    min_common: int = 2,
    tokenizer: str = "simple",
    max_group: int = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """Doc pairs sharing >= min_common winnowed fingerprints — the
    overlap-detection form of winnowing (guaranteed to catch shared
    token runs of length >= w+k-1). Same fully-distributed shape as
    ngram_jaccard_pairs (per-fp pair emission with the hot-key cap,
    per-pair count), but over the sparse winnowed set."""
    fps = winnow_fingerprints(ds, k, w, tokenizer)

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(np.unique(g["doc_id"].to_numpy(np.int64)))
        if len(ids) > max_group:
            # sentinel rides the aggregate so the drop is LOGGED, not
            # silent (same contract as ngram_jaccard_pairs)
            return pd.DataFrame({"doc_a": [-1], "doc_b": [-1]}).astype("int64")
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]})

    out = (
        fps.groupby("fp")
        .map_groups(emit_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="common"))
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ["doc_a", "doc_b", "common"]}
        )
    sentinel = out["doc_a"] < 0
    n_dropped = int(out.loc[sentinel, "common"].sum())
    if n_dropped:
        logger.warning("winnow_overlap_pairs: %d hot fingerprints over max_group=%d "
                       "dropped from pair emission", n_dropped, max_group)
    out = out[~sentinel]
    out = out[out["common"] >= min_common]
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True).astype("int64")


def dup_clusters(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """Duplicate CLUSTERS: connected components over the near-dup pair
    graph (``ngram_jaccard_pairs``), labeled by the component's min
    doc_id — the step every dedup pipeline runs after pair detection
    (keep one doc per cluster, not per pair: A~B, B~C must retire both
    B and C even when A~C was never emitted).

    Scale shape: the distributed work is the pair stage (shingle
    exchange, candidate caps); the emitted pair list is SPARSE —
    bounded by caps and the dup rate, never O(N^2) — so the union-find
    runs driver-side over pair rows only (docs never leave the
    cluster). For pair lists beyond one driver (billions of edges) the
    documented alternative is iterative min-label propagation as
    repeated keyed joins — the Hash-to-Min form (Rastogi et al.,
    "Finding Connected Components in MapReduce", ICDE 2013) — which is
    this same reduction expressed as O(log d) groupby rounds.

    Returns (doc_id, cluster_id) for every doc in >= 1 pair, sorted by
    doc_id; singletons (docs in no pair) are implicitly their own
    cluster and are not emitted.
    """
    pairs = ngram_jaccard_pairs(ds, n=n, threshold=threshold,
                                tokenizer=tokenizer, max_group=max_group)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs["doc_a"].to_numpy(np.int64),
                    pairs["doc_b"].to_numpy(np.int64)):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:  # union by min id keeps labels deterministic
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    if not parent:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "cluster_id": pd.Series(dtype="int64")})
    out = pd.DataFrame(
        {"doc_id": list(parent), "cluster_id": [find(x) for x in parent]}
    )
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


def dup_components(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
    max_rounds: int = 32,
) -> pd.DataFrame:
    """Distributed connected components over the near-dup pair graph —
    the scale form of ``dup_clusters``'s driver union-find, expressed
    as alternating **large-star / small-star** groupby rounds (Kiveris
    et al., "Connected Components in MapReduce and Beyond", SoCC 2014):
    every round is two ``groupby(node).map_groups`` exchanges over the
    EDGE set only — no labels side-table, no driver-resident graph —
    converging to star graphs whose center is the component's min
    doc_id in O(log^2 n) rounds; dup graphs (cliques/stars around
    shared content) converge in 2-3.

    - **large-star** per node u over the undirected neighborhood:
      m = min(N(u) ∪ {u}); emit (v, m) for v in N(u) with v > u.
    - **small-star** on edges oriented (big, small), per node u with
      smaller neighbors N⁻(u): m = min(N⁻(u)); emit (v, m) for
      v in (N⁻(u) ∪ {u}) \\ {m}.

    Convergence is detected by an edge-multiset fingerprint (count +
    two independent overflow-wrapping int64 sums) staying fixed across
    one full round; the result is verified edge-exactly against the
    union-find form in tests and against the recursive-CTE SQL oracle.
    Returns the ``dup_clusters`` contract: one (doc_id, cluster_id)
    row per doc appearing in >= 1 pair, cluster labeled by component
    min doc_id, sorted by doc_id.
    """
    import pyarrow.compute as pc

    pairs = ngram_jaccard_pairs(ds, n=n, threshold=threshold,
                                tokenizer=tokenizer, max_group=max_group)
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "cluster_id": pd.Series(dtype="int64")})
    if pairs.empty:
        return empty
    edges = ray.data.from_pandas(
        pairs[["doc_a", "doc_b"]].rename(columns={"doc_a": "u", "doc_b": "v"})
    )

    def both_dirs(batch: pa.Table) -> pa.Table:
        u = batch["u"].combine_chunks()
        v = batch["v"].combine_chunks()
        return pa.table({"node": pa.concat_arrays([u, v]),
                         "nbr": pa.concat_arrays([v, u])})

    def large_star(g: pd.DataFrame) -> pd.DataFrame:
        u = int(g["node"].iloc[0])
        nbrs = g["nbr"].to_numpy(np.int64)
        m = min(u, int(nbrs.min()))
        big = np.unique(nbrs[nbrs > u])
        return pd.DataFrame({"u": big, "v": np.full(len(big), m, np.int64)})

    def orient_big_small(batch: pa.Table) -> pa.Table:
        u, v = batch["u"], batch["v"]
        return pa.table({"node": pc.max_element_wise(u, v),
                         "nbr": pc.min_element_wise(u, v)})

    def small_star(g: pd.DataFrame) -> pd.DataFrame:
        u = int(g["node"].iloc[0])
        nbrs = np.unique(g["nbr"].to_numpy(np.int64))  # all < u by orientation
        m = int(nbrs.min())
        out = nbrs[nbrs != m]
        tail = np.asarray([u] if u != m else [], np.int64)
        return pd.DataFrame({
            "u": np.concatenate([out, tail]),
            "v": np.full(len(out) + len(tail), m, np.int64),
        })

    def distinct_edges(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["u", "v"])[["u", "v"]]

    def fingerprint(e: ray.data.Dataset) -> tuple:
        def fp(batch: pa.Table) -> pa.Table:
            u = batch["u"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            with np.errstate(over="ignore"):
                h1 = int((u * np.int64(1000003) + v).sum()) if len(u) else 0
                h2 = int((u ^ (v * np.int64(2654435761))).sum()) if len(u) else 0
            return pa.table({"n": pa.array([len(u)], pa.int64()),
                             "h1": pa.array([h1], pa.int64()),
                             "h2": pa.array([h2], pa.int64())})
        agg = e.map_batches(fp, batch_format="pyarrow").sum(["n", "h1", "h2"])
        return (agg["sum(n)"], agg["sum(h1)"], agg["sum(h2)"])

    prev = None
    for _ in range(max_rounds):
        edges = (
            edges.map_batches(both_dirs, batch_format="pyarrow")
            .groupby("node").map_groups(large_star, batch_format="pandas")
            .map_batches(orient_big_small, batch_format="pyarrow")
            .groupby("node").map_groups(small_star, batch_format="pandas")
            .groupby("u").map_groups(distinct_edges, batch_format="pandas")
            .materialize()
        )
        cur = fingerprint(edges)
        if cur == prev:
            break
        prev = cur
    else:  # pragma: no cover - bounded by O(log^2 n) in theory
        raise RuntimeError(f"dup_components did not converge in {max_rounds} rounds")

    stars = edges.to_pandas().astype("int64")
    if stars.empty:
        return empty
    roots = pd.DataFrame({"u": np.unique(stars["v"].to_numpy(np.int64))})
    roots["v"] = roots["u"]
    out = pd.concat([stars, roots], ignore_index=True).drop_duplicates("u")
    return (
        out.rename(columns={"u": "doc_id", "v": "cluster_id"})
        .sort_values("doc_id").reset_index(drop=True).astype("int64")
    )


def dup_triangles(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """Per-doc triangle counts over the near-dup pair graph — the
    graph-analytics density signal (a doc in many triangles sits in a
    tight near-dup clique, not a chain), via the degree-oriented wedge
    algorithm (Suri & Vassilvitskii, "Counting Triangles and the Curse
    of the Last Reducer", WWW 2011):

    1. orient each edge toward the higher (degree, id) endpoint, so
       every node's OUT-degree is O(sqrt(m)) and each triangle has
       exactly one pivot (its lowest-ordered vertex);
    2. ``groupby(pivot)`` emits the pivot's out-neighbor pairs as
       wedge rows (lo, hi, pivot) — the only quadratic step, bounded
       by the orientation;
    3. wedges close into triangles where the (lo, hi) edge exists —
       the same tagged-union + ``groupby`` join shape the engine uses
       everywhere instead of a shuffle join;
    4. one (doc, 1)-per-member aggregate yields the per-doc counts.

    Returns (doc_id, n_triangles) for docs in >= 1 triangle, sorted by
    doc_id. The SQL mirror is the three-way self-join over the same
    pair CTE.
    """
    pairs = ngram_jaccard_pairs(ds, n=n, threshold=threshold,
                                tokenizer=tokenizer, max_group=max_group)
    return triangles_from_pairs(pairs)


def triangles_from_pairs(pairs: pd.DataFrame) -> pd.DataFrame:
    """The triangle core of ``dup_triangles`` over an already-computed
    (doc_a < doc_b) distinct pair list — shared with
    ``dup_clustering_coefficients``."""
    empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                          "n_triangles": pd.Series(dtype="int64")})
    if pairs.empty:
        return empty
    deg = pd.concat([pairs["doc_a"], pairs["doc_b"]]).value_counts()
    deg_ref = ray.put(deg)
    edges = ray.data.from_pandas(pairs[["doc_a", "doc_b"]])

    def orient(batch: pa.Table) -> pa.Table:
        d = ray.get(deg_ref)
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        da = d.reindex(a).to_numpy(np.int64)
        db = d.reindex(b).to_numpy(np.int64)
        # pivot = lower (degree, id); out-neighbor = the other end
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table({
            "pivot": pa.array(np.where(a_first, a, b), pa.int64()),
            "out": pa.array(np.where(a_first, b, a), pa.int64()),
        })

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        outs = np.unique(g["out"].to_numpy(np.int64))
        if len(outs) < 2:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ["lo", "hi", "pivot"]})
        i, j = np.triu_indices(len(outs), k=1)
        return pd.DataFrame({
            "lo": outs[i], "hi": outs[j],
            "pivot": np.full(len(i), int(g["pivot"].iloc[0]), np.int64),
        })

    wedge_ds = (
        edges.map_batches(orient, batch_format="pyarrow")
        .groupby("pivot").map_groups(wedges, batch_format="pandas")
    )

    def tag_edges(batch: pd.DataFrame) -> pd.DataFrame:
        # pandas batch format so the union sides share one block type
        a = batch["doc_a"].to_numpy(np.int64)
        b = batch["doc_b"].to_numpy(np.int64)
        return pd.DataFrame({
            "lo": np.minimum(a, b),
            "hi": np.maximum(a, b),
            "pivot": np.full(len(a), -1, np.int64),  # edge marker
        })

    def close_triangles(g: pd.DataFrame) -> pd.DataFrame:
        piv = g["pivot"].to_numpy(np.int64)
        has_edge = (piv == -1).any()
        pivots = piv[piv != -1]
        if not has_edge or not len(pivots):
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ["doc_id", "c"]})
        lo, hi = int(g["lo"].iloc[0]), int(g["hi"].iloc[0])
        members = np.concatenate([pivots,
                                  np.full(len(pivots), lo, np.int64),
                                  np.full(len(pivots), hi, np.int64)])
        ids, cnts = np.unique(members, return_counts=True)
        return pd.DataFrame({"doc_id": ids, "c": cnts.astype(np.int64)})

    out = (
        wedge_ds.union(edges.map_batches(tag_edges, batch_format="pandas"))
        .groupby(["lo", "hi"])
        .map_groups(close_triangles, batch_format="pandas")
        .groupby("doc_id")
        .aggregate(Sum("c", alias_name="n_triangles"))
        .to_pandas()
    )
    if out.empty:
        return empty
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


def ngram_containment_pairs(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """ASYMMETRIC near-dup detection: shingle containment
    ``|A ∩ B| / min(|A|, |B|)`` — the measure that catches a short doc
    quoted or embedded inside a long one, which Jaccard dilutes toward
    0 as the size ratio grows (Broder's containment, "On the
    resemblance and containment of documents", SEQUENCES 1997). Same
    distributed chain as ``ngram_jaccard_pairs`` (shingle explode with
    carried set sizes, capped per-shingle pair emission, per-pair
    aggregate); the score is the pure-integer fixed-point form
    ``(2e6*common + m) // (2*m)`` with ``m = min(na, nb)`` so the SQL
    oracle matches bitwise. Returns (doc_a, doc_b, common,
    containment_e6) for containment >= threshold.
    """
    sh = shingle_rows(ds, n, tokenizer, with_counts=True)

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["doc_id"].to_numpy(np.int64))
        ids = g["doc_id"].to_numpy(np.int64)[order]
        szs = g["n_sh"].to_numpy(np.int64)[order]
        if max_group is not None and len(ids) > max_group:
            return pd.DataFrame(
                {"doc_a": [-1], "doc_b": [-1], "na": [0], "nb": [0]}
            ).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame(
            {"doc_a": ids[a], "doc_b": ids[b], "na": szs[a], "nb": szs[b]}
        )

    pairs = (
        sh.groupby("shingle")
        .map_groups(emit_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(
            Count(alias_name="common"),
            Min("na", alias_name="na"),
            Min("nb", alias_name="nb"),
        )
    )
    thresh_e6 = int(np.floor(threshold * 1e6 + 0.5))

    def finish(batch: pa.Table) -> pa.Table:
        t = batch.to_pandas()
        sentinel = t["doc_a"].to_numpy() < 0
        drop = t[sentinel]
        t = t[~sentinel]
        m = np.minimum(t["na"].to_numpy(np.int64), t["nb"].to_numpy(np.int64))
        m = np.maximum(m, 1)
        common = t["common"].to_numpy(np.int64)
        cont_e6 = (2_000_000 * common + m) // (2 * m)
        keep = cont_e6 >= thresh_e6
        out = {
            "doc_a": t["doc_a"].to_numpy(np.int64)[keep].tolist(),
            "doc_b": t["doc_b"].to_numpy(np.int64)[keep].tolist(),
            "common": common[keep].tolist(),
            "containment_e6": cont_e6[keep].tolist(),
        }
        for _, r in drop.iterrows():
            out["doc_a"].append(-1)
            out["doc_b"].append(-1)
            out["common"].append(int(r["common"]))
            out["containment_e6"].append(0)
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})

    out = pairs.map_batches(finish, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64")
             for c in ["doc_a", "doc_b", "common", "containment_e6"]}
        )
    sentinel = out["doc_a"] < 0
    n_dropped = int(out.loc[sentinel, "common"].sum())
    if n_dropped:
        logger.warning("ngram_containment_pairs: %d hot shingles over max_group=%d "
                       "dropped from pair emission", n_dropped, max_group)
    return (
        out[~sentinel]
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
        .astype("int64")
    )


def dup_clustering_coefficients(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """Local clustering coefficients over the near-dup pair graph:
    c(v) = 2*T(v) / (deg(v)*(deg(v)-1)) — how close each doc's
    neighborhood is to a clique (1.0 = its duplicates all duplicate
    each other; near 0 = the doc is a hub stitching unrelated texts, a
    template/boilerplate smell). Composes the engine's pieces: one
    pair stage, the distributed wedge triangle count
    (``triangles_from_pairs``), degrees from the SPARSE pair list, and
    the pure-integer fixed-point ratio so the SQL mirror is bitwise.
    Returns (doc_id, degree, n_triangles, clustering_e6) for every doc
    in >= 1 pair (degree-1 docs score 0), sorted by doc_id.
    """
    pairs = ngram_jaccard_pairs(ds, n=n, threshold=threshold,
                                tokenizer=tokenizer, max_group=max_group)
    if pairs.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                             ["doc_id", "degree", "n_triangles", "clustering_e6"]})
    deg = (pd.concat([pairs["doc_a"], pairs["doc_b"]])
           .value_counts().rename_axis("doc_id").reset_index(name="degree"))
    tri = triangles_from_pairs(pairs)
    out = deg.merge(tri, on="doc_id", how="left").fillna({"n_triangles": 0})
    d = out["degree"].astype("int64")
    t = out["n_triangles"].astype("int64")
    denom = (d * (d - 1)).clip(lower=1)
    coef = (2_000_000 * 2 * t + denom) // (2 * denom)
    out["clustering_e6"] = np.where(d >= 2, coef, 0)
    return (
        out.sort_values("doc_id").reset_index(drop=True)
        .astype("int64")[["doc_id", "degree", "n_triangles", "clustering_e6"]]
    )


def dup_pagerank(
    ds: ray.data.Dataset,
    n: int = 5,
    iters: int = 6,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
    scale: int = 10**12,
    d_num: int = 85,
    d_den: int = 100,
) -> pd.DataFrame:
    """Fixed-point integer PageRank over the near-dup pair graph — the
    centrality ranking of the duplicate neighborhood (a high-rank doc
    is the template/canonical text its near-dups orbit; the natural
    "which copy do I keep" signal beyond min-doc-id).

    Determinism contract: the classic power iteration is done in PURE
    INTEGER arithmetic (mass scaled to ``scale`` = 10^12 parts, damping
    d = d_num/d_den, every division a floor) so the result is
    bit-identical across engines and run orders — float PageRank sums
    are order-sensitive; integer sums are not. Per iteration:

        pr'(u) = ((d_den - d_num) * (scale // N)) // d_den
                 + sum_{v in N(u)} (d_num * pr(v)) // (d_den * deg(v))

    over the undirected pair graph (every node has deg >= 1, so there
    is no dangling mass). ``iters`` is fixed (the MapReduce-era
    contract: k synchronous rounds, Malewicz et al. Pregel-style), not
    convergence-tested — the operator is a deterministic transform.

    Scale shape: the SPARSE near-dup pair list lands on the driver
    once to derive degrees (the same seam ``dup_components`` names —
    at billion-edge scale both the degree count and the edge build
    become one more keyed exchange); the iteration itself then runs
    over an edge Dataset — each round is ONE tagged-union groupby join
    (ranks keyed to edge sources, the Q3 hash-join shape, no broadcast
    of the rank table) plus ONE groupby-sum of the contributions.
    Returns (doc_id, degree, pagerank_pp12) sorted by doc_id; ranks
    are parts-per-10^12 of the total mass.
    """
    pairs = ngram_jaccard_pairs(ds, n=n, threshold=threshold,
                                tokenizer=tokenizer, max_group=max_group)
    empty = pd.DataFrame({c: pd.Series(dtype="int64") for c in
                          ["doc_id", "degree", "pagerank_pp12"]})
    if pairs.empty:
        return empty

    both = pd.DataFrame({
        "src": pd.concat([pairs["doc_a"], pairs["doc_b"]], ignore_index=True),
        "dst": pd.concat([pairs["doc_b"], pairs["doc_a"]], ignore_index=True),
    }).astype("int64")
    deg = both.groupby("src").size().rename("deg_src").reset_index()
    both = both.merge(deg, on="src")
    n_nodes = int(deg.shape[0])
    init = scale // n_nodes
    base = ((d_den - d_num) * init) // d_den

    edge_rows = both.rename(columns={"src": "key"}).copy()
    edge_rows["pr"] = np.int64(0)
    edge_rows["tag"] = np.int64(0)
    edges = ray.data.from_pandas(
        edge_rows[["key", "dst", "deg_src", "pr", "tag"]]).materialize()

    rank_df = pd.DataFrame({
        "key": deg["src"].to_numpy(np.int64),
        "dst": np.full(n_nodes, -1, np.int64),
        "deg_src": np.ones(n_nodes, np.int64),
        "pr": np.full(n_nodes, init, np.int64),
        "tag": np.ones(n_nodes, np.int64),
    })

    def contribs(g: pd.DataFrame) -> pd.DataFrame:
        pr = int(g.loc[g["tag"] == 1, "pr"].iloc[0])
        e = g[g["tag"] == 0]
        if e.empty:
            return pd.DataFrame({"dst": pd.Series(dtype="int64"),
                                 "contrib": pd.Series(dtype="int64")})
        c = (d_num * pr) // (d_den * e["deg_src"].to_numpy(np.int64))
        return pd.DataFrame({"dst": e["dst"].to_numpy(np.int64), "contrib": c})

    ranks = ray.data.from_pandas(rank_df)
    for _ in range(iters):
        summed = (
            edges.union(ranks)
            .groupby("key").map_groups(contribs, batch_format="pandas")
            .groupby("dst").sum("contrib")
        )

        def renew(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({
                "key": batch["dst"].to_numpy(np.int64),
                "pr": base + batch["sum(contrib)"].to_numpy(np.int64),
            })
            out["dst"] = np.int64(-1)
            out["deg_src"] = np.int64(1)
            out["tag"] = np.int64(1)
            return out[["key", "dst", "deg_src", "pr", "tag"]]

        ranks = summed.map_batches(renew, batch_format="pandas").materialize()

    final = ranks.to_pandas()[["key", "pr"]].rename(
        columns={"key": "doc_id", "pr": "pagerank_pp12"})
    out = deg.rename(columns={"src": "doc_id", "deg_src": "degree"}).merge(
        final, on="doc_id")
    return (out.sort_values("doc_id").reset_index(drop=True)
            .astype("int64")[["doc_id", "degree", "pagerank_pp12"]])


def _dup_window_set(ds: ray.data.Dataset, w: int, tok) -> np.ndarray:
    """Pass 1 shared by ``dup_span_coverage`` / ``trim_dup_spans``:
    the sorted int64 array of ``w``-token window hashes carried by
    >= 2 distinct docs. Window hashes ride bit-reinterpreted as int64
    (top-bit u64 values overflow Arrow's int64 inference and would
    fall back to pickled-object blocks in the groupby exchange); the
    value never reaches any output, only membership matters. The
    returned set is bounded by SHARED content, so it broadcasts
    (ray.put by the caller; the Bloom seam beyond ~50M entries, as in
    the dedup build)."""

    def emit(batch: pa.Table) -> pa.Table:
        ids, whs = [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ts = tok(text or "")
            if len(ts) < w:
                continue
            hs = {md5_u64(" ".join(ts[i:i + w])) for i in range(len(ts) - w + 1)}
            ids.extend([did] * len(hs))
            whs.extend(hs)
        wh64 = np.fromiter(whs, np.uint64, len(whs)).view(np.int64)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "wh": pa.array(wh64)})

    counts = (
        ds.map_batches(emit, batch_format="pyarrow")
        .groupby("wh").aggregate(Count(alias_name="n_docs"))
        .filter(expr="n_docs >= 2")
        .to_pandas()
    )
    return (np.sort(counts["wh"].to_numpy(np.int64))
            if len(counts) else np.empty(0, np.int64))


def dup_span_coverage(
    ds: ray.data.Dataset,
    window: int = 8,
    tokenizer: str = "simple",
) -> pd.DataFrame:
    """Substring-level duplication coverage (the Lee et al. 2022
    "Deduplicating Training Data Makes Language Models Better"
    measurement, in its cross-document window form): for every doc,
    the fraction of its token positions covered by at least one
    ``window``-token span that also appears verbatim in ANOTHER doc.
    Doc-level dedup (exact/minhash/jaccard) misses partially-copied
    text; this is the per-doc "how much of me is boilerplate" dial
    used to gate or trim training documents.

    Two thin passes, the ``decontaminate`` scale shape:

    1. one tokenize pass emits per-doc-DISTINCT (window_hash64, doc)
       rows -> a built-in groupby Count gives the number of distinct
       docs per window -> the DUPLICATED window set (>= 2 docs) is
       bounded by shared content, so it broadcasts as a sorted u64
       array via ray.put (the Bloom seam beyond ~50M entries, as in
       the dedup build);
    2. a second streaming pass re-derives each doc's window hashes
       (pure CPU), marks members of the broadcast set with one
       searchsorted per batch, and computes exact covered-position
       counts with a vectorized difference-array interval union —
       no per-position rows ever enter an exchange.

    Windows ride as md5-u64 of the space-joined token window (the SQL
    oracle mirrors the same 16-hex-digit prefix). Coverage is reported
    in the engine's pure-integer fixed-point form. Returns one row per
    doc: (doc_id, n_tokens, dup_windows, covered_tokens, coverage_e6)
    sorted by doc_id.
    """
    import ray

    tok = get_tokenizer(tokenizer)
    w = int(window)
    dup_ref = ray.put(_dup_window_set(ds, w, tok))

    def cover(batch: pa.Table) -> pa.Table:
        dset = ray.get(dup_ref)
        ids, ntoks, dwins, covs = [], [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ts = tok(text or "")
            nt = len(ts)
            ids.append(did)
            ntoks.append(nt)
            if nt < w or not len(dset):
                dwins.append(0)
                covs.append(0)
                continue
            whs = np.fromiter(
                (md5_u64(" ".join(ts[i:i + w])) for i in range(nt - w + 1)),
                np.uint64, nt - w + 1).view(np.int64)
            mask = dset[np.minimum(np.searchsorted(dset, whs), len(dset) - 1)] == whs
            starts = np.nonzero(mask)[0]
            dwins.append(int(len(starts)))
            if not len(starts):
                covs.append(0)
                continue
            diff = np.zeros(nt + 1, np.int64)
            np.add.at(diff, starts, 1)
            np.add.at(diff, starts + w, -1)
            covs.append(int((np.cumsum(diff[:nt]) > 0).sum()))
        nt_arr = np.asarray(ntoks, np.int64)
        cov_arr = np.asarray(covs, np.int64)
        denom = np.maximum(nt_arr, 1)
        cov_e6 = np.where(nt_arr > 0,
                          (2_000_000 * cov_arr + denom) // (2 * denom), 0)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(nt_arr),
            "dup_windows": pa.array(dwins, pa.int64()),
            "covered_tokens": pa.array(cov_arr),
            "coverage_e6": pa.array(cov_e6.astype(np.int64)),
        })

    out = ds.map_batches(cover, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in
                             ["doc_id", "n_tokens", "dup_windows",
                              "covered_tokens", "coverage_e6"]})
    return (out.sort_values("doc_id").reset_index(drop=True).astype("int64"))


def trim_dup_spans(
    ds: ray.data.Dataset,
    window: int = 8,
    tokenizer: str = "simple",
) -> pd.DataFrame:
    """The corrective twin of ``dup_span_coverage`` — Lee et al.
    2022's actual dedup action: rebuild each doc's token stream with
    every position that falls inside a cross-doc-duplicated
    ``window``-token span REMOVED, keeping the surviving tokens in
    their original order. Doc-level dedup drops whole docs;
    span-level TRIMMING salvages the unique remainder of
    partially-boilerplate docs (the higher-recall form used on web
    crawl text before training).

    Same two-pass scale shape as the coverage measurement (shared
    pass-1 dup-window set, ``_dup_window_set``); pass 2 additionally
    re-joins the kept tokens and attests the cleaned text with an md5
    so the transform is verifiable end-to-end without shipping the
    cleaned strings anywhere (only the digest reaches the result —
    the cleaned corpus itself would be written to parquet at scale).
    Returns one row per doc: (doc_id, n_tokens, kept_tokens,
    removed_tokens, cleaned_md5) sorted by doc_id; docs shorter than
    the window (or with no duplicated spans) keep everything and
    attest their normalized (space-rejoined) token stream.
    """
    import ray

    tok = get_tokenizer(tokenizer)
    w = int(window)
    dup_ref = ray.put(_dup_window_set(ds, w, tok))

    def trim(batch: pa.Table) -> pa.Table:
        dset = ray.get(dup_ref)
        ids, ntoks, kept, removed, digests = [], [], [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ts = tok(text or "")
            nt = len(ts)
            ids.append(did)
            ntoks.append(nt)
            if nt < w or not len(dset):
                covered = np.zeros(nt, bool)
            else:
                whs = np.fromiter(
                    (md5_u64(" ".join(ts[i:i + w])) for i in range(nt - w + 1)),
                    np.uint64, nt - w + 1).view(np.int64)
                mask = dset[np.minimum(np.searchsorted(dset, whs),
                                       len(dset) - 1)] == whs
                starts = np.nonzero(mask)[0]
                diff = np.zeros(nt + 1, np.int64)
                np.add.at(diff, starts, 1)
                np.add.at(diff, starts + w, -1)
                covered = np.cumsum(diff[:nt]) > 0
            keep = [t for t, c in zip(ts, covered) if not c]
            kept.append(len(keep))
            removed.append(int(covered.sum()))
            digests.append(hashlib.md5(" ".join(keep).encode("utf-8")).hexdigest())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(ntoks, pa.int64()),
            "kept_tokens": pa.array(kept, pa.int64()),
            "removed_tokens": pa.array(removed, pa.int64()),
            "cleaned_md5": pa.array(digests, pa.string()),
        })

    out = ds.map_batches(trim, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame({
            "doc_id": pd.Series(dtype="int64"),
            "n_tokens": pd.Series(dtype="int64"),
            "kept_tokens": pd.Series(dtype="int64"),
            "removed_tokens": pd.Series(dtype="int64"),
            "cleaned_md5": pd.Series(dtype="object"),
        })
    out = out.sort_values("doc_id").reset_index(drop=True)
    for c in ("doc_id", "n_tokens", "kept_tokens", "removed_tokens"):
        out[c] = out[c].astype("int64")
    return out


# ---------------------------------------------------------------------------
# incremental near-dup gate: persisted MinHash store + check-batch


def _pack_sigs(sig_ds: ray.data.Dataset) -> ray.data.Dataset:
    """list<u64> signature -> fixed-width packed binary (8*num_perm
    bytes, little-endian) — the join- and parquet-friendly form."""

    def to_bin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "sig": pa.array(
                [np.asarray(s, dtype=np.uint64).tobytes()
                 for s in batch["signature"].to_pylist()],
                pa.binary(),
            ),
        })

    return sig_ds.map_batches(to_bin, batch_format="pyarrow")


def _band_rows_from_packed(bands: int, rows_per_band: int):
    """Batch fn: packed signatures -> thin (band_id, band_hash, doc_id)
    rows — the only thing that rides the bucket exchange."""

    def fn(batch: pa.Table) -> pa.Table:
        bid, bh, did = [], [], []
        for doc, raw in zip(batch["doc_id"].to_pylist(), batch["sig"].to_pylist()):
            sig = np.frombuffer(raw, dtype=np.uint64)
            for b in range(bands):
                chunk = tuple(
                    int(v) for v in sig[b * rows_per_band : (b + 1) * rows_per_band]
                )
                bid.append(b)
                bh.append(stable_u64(repr(chunk)))
                did.append(doc)
        return pa.table({
            "band_id": pa.array(bid, pa.int32()),
            "band_hash": pa.array(bh, pa.uint64()),
            "doc_id": pa.array(did, pa.int64()),
        })

    return fn


def build_minhash_store(
    ds: ray.data.Dataset,
    store_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    tokenizer: str = "simple",
) -> dict:
    """Persist a corpus's MinHash state as the INCREMENTAL near-dup
    gate's reference side: ``signatures/`` (doc_id, packed sig) and
    ``bands/`` (band_id, band_hash, doc_id) parquet, plus a meta.json
    pinning the sketch parameters. New crawl batches are then vetted
    with ``check_against_store`` WITHOUT recomputing anything for the
    already-ingested corpus — the standard intake topology (dedup
    against what you already have, not within-batch only), impossible
    with the in-session ``minhash_near_dups`` alone.

    Band rows are sorted by (band_id, band_hash) before the write so
    a bucket's rows co-locate in row groups (the same
    sort-before-hive-write rule the IVF layout uses); at 10^12 docs
    the bands table is the join side that stays on disk, streamed
    per-bucket, never driver-resident."""
    os.makedirs(store_dir, exist_ok=True)
    sig_dir = os.path.join(store_dir, "signatures")
    band_dir = os.path.join(store_dir, "bands")
    sigs = _pack_sigs(
        minhash_signatures(ds, num_perm, shingle_n, tokenizer)
    ).materialize()
    sigs.write_parquet(sig_dir)
    rows_per_band = num_perm // bands
    (sigs.map_batches(_band_rows_from_packed(bands, rows_per_band),
                      batch_format="pyarrow")
         .sort(["band_id", "band_hash"])
         .write_parquet(band_dir))
    n_docs = sigs.count()
    meta = {"num_perm": num_perm, "bands": bands, "shingle_n": shingle_n,
            "tokenizer": tokenizer, "n_docs": int(n_docs)}
    import json as _json
    tmp = os.path.join(store_dir, "meta.json.tmp")
    with open(tmp, "w") as f:
        _json.dump(meta, f)
    os.replace(tmp, os.path.join(store_dir, "meta.json"))
    return meta


def extend_minhash_store(ds: ray.data.Dataset, store_dir: str) -> dict:
    """Append a new batch's signatures + band rows to an existing
    store (same sketch parameters, read from meta.json). Caller
    contract: the batch's doc_ids are disjoint from the store's (the
    intake pipeline assigns fresh ids); typically called for the docs
    that SURVIVED ``check_against_store``."""
    import glob as _glob
    import json as _json

    with open(os.path.join(store_dir, "meta.json")) as f:
        meta = _json.load(f)
    sigs = _pack_sigs(minhash_signatures(
        ds, meta["num_perm"], meta["shingle_n"], meta["tokenizer"]
    )).materialize()
    n_new = sigs.count()
    if n_new:
        sigs.write_parquet(os.path.join(store_dir, "signatures"))
        rows_per_band = meta["num_perm"] // meta["bands"]
        (sigs.map_batches(
            _band_rows_from_packed(meta["bands"], rows_per_band),
            batch_format="pyarrow")
            .sort(["band_id", "band_hash"])
            .write_parquet(os.path.join(store_dir, "bands")))
    meta["n_docs"] = int(meta["n_docs"]) + int(n_new)
    tmp = os.path.join(store_dir, "meta.json.tmp")
    with open(tmp, "w") as f:
        _json.dump(meta, f)
    os.replace(tmp, os.path.join(store_dir, "meta.json"))
    return meta


def check_against_store(
    ds: ray.data.Dataset,
    store_dir: str,
    threshold: float = 0.5,
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """The crawl-intake near-dup GATE: which docs of a NEW batch are
    near-duplicates of anything ALREADY IN the persisted store. Only
    cross-side (new x stored) pairs are emitted — within-batch dup
    detection is ``minhash_near_dups``'s job, and stored-vs-stored
    was settled when those docs were admitted.

    Shape: the new batch's band rows (thin) union the store's band
    rows (streamed off parquet, never driver-resident); one
    (band_id, band_hash) groupby emits new x stored candidates with
    the module-wide hot-bucket cap (sentinel-logged); candidates
    dedup via a pair groupby; verification is the shared
    signature-agreement join (``_estimate_pair_jaccard``) over the
    union of both sides' signature tables. Returns
    (doc_id, matched_doc, jaccard_e6) — doc_id from the NEW batch,
    matched_doc from the store — sorted.
    """
    import json as _json

    import pyarrow.compute as pc

    with open(os.path.join(store_dir, "meta.json")) as f:
        meta = _json.load(f)
    rows_per_band = meta["num_perm"] // meta["bands"]

    new_sigs = _pack_sigs(minhash_signatures(
        ds, meta["num_perm"], meta["shingle_n"], meta["tokenizer"]
    )).materialize()
    new_bands = new_sigs.map_batches(
        _band_rows_from_packed(meta["bands"], rows_per_band),
        batch_format="pyarrow",
    )

    def tag(is_new: int):
        def fn(b: pa.Table) -> pa.Table:
            return b.append_column(
                "is_new", pa.array(np.full(b.num_rows, is_new, np.int8)))
        return fn

    store_bands = ray.data.read_parquet(os.path.join(store_dir, "bands"))
    all_bands = new_bands.map_batches(tag(1), batch_format="pyarrow").union(
        store_bands.map_batches(tag(0), batch_format="pyarrow"))

    def emit_cross(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy(np.int64)
        tags = g["is_new"].to_numpy()
        new_ids = np.unique(ids[tags == 1])
        old_ids = np.unique(ids[tags == 0])
        if len(new_ids) == 0 or len(old_ids) == 0:
            return pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
        if max_group is not None and len(new_ids) + len(old_ids) > max_group:
            return pd.DataFrame({"doc_a": [-1], "doc_b": [-1]}).astype("int64")
        return pd.DataFrame({
            "doc_a": np.repeat(new_ids, len(old_ids)),
            "doc_b": np.tile(old_ids, len(new_ids)),
        })

    cand = (
        all_bands.groupby(["band_id", "band_hash"])
        .map_groups(emit_cross, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_buckets"))
        .materialize()
    )

    def only(pred):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pred(b["doc_a"]))
        return fn

    n_dropped = cand.map_batches(
        only(lambda c: pc.less(c, 0)), batch_format="pyarrow").count()
    if n_dropped:
        logger.warning("check_against_store: %d hot band buckets over max_group=%d "
                       "dropped from verification", n_dropped, max_group)

    empty = pd.DataFrame(
        {"doc_id": pd.Series(dtype="int64"),
         "matched_doc": pd.Series(dtype="int64"),
         "jaccard_e6": pd.Series(dtype="int64")}
    )
    pairs = cand.map_batches(
        only(lambda c: pc.greater_equal(c, 0)), batch_format="pyarrow"
    ).select_columns(["doc_a", "doc_b"])
    if pairs.count() == 0:
        return empty
    store_sigs = ray.data.read_parquet(os.path.join(store_dir, "signatures"))
    sigs = new_sigs.union(store_sigs)
    out = _estimate_pair_jaccard(pairs, sigs, threshold)
    if out.empty:
        return empty
    return (
        out.rename(columns={"doc_a": "doc_id", "doc_b": "matched_doc"})
        .sort_values(["doc_id", "matched_doc"]).reset_index(drop=True)
    )


def minhash_gate_on_split(
    ds: ray.data.Dataset,
    train: int = 80,
    val: int = 10,
    threshold: float = 0.5,
    store_dir: str | None = None,
) -> pd.DataFrame:
    """Driver-checkable end-to-end exercise of the incremental gate:
    the deterministic hash split (md5(doc_id) % 100 — the same
    assignment as analysis.split_summary / decontaminate) plays the
    roles: TRAIN docs (< train) are ingested into a fresh persisted
    store, TEST docs (>= train+val) arrive as the new crawl batch, and
    the returned frame is exactly ``check_against_store``'s verdict —
    which new docs near-duplicate something already ingested. Val docs
    touch neither side (they cannot leak into the gate). The SQL
    oracle mirrors the full chain: split, signatures (HUGEINT wrap
    included), cross-side band collisions, hot cap, agreement
    estimate."""
    import shutil
    import tempfile

    cut = train + val

    def side(lo: int, hi: int):
        def fn(batch: pa.Table) -> pa.Table:
            keep = [lo <= md5_u64(str(d)) % 100 < hi
                    for d in batch["doc_id"].to_pylist()]
            return batch.filter(pa.array(keep, pa.bool_()))
        return fn

    store_docs = ds.map_batches(side(0, train), batch_format="pyarrow")
    new_docs = ds.map_batches(side(cut, 101), batch_format="pyarrow")
    tmp = store_dir or tempfile.mkdtemp(prefix="mh_store_", dir="/tmp")
    try:
        build_minhash_store(store_docs, tmp)
        return check_against_store(new_docs, tmp, threshold=threshold)
    finally:
        if store_dir is None:
            shutil.rmtree(tmp, ignore_errors=True)


def neardup_survivors(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> ray.data.Dataset:
    """The ACTION step of near-dedup: the full per-doc keep/drop list.
    Every doc gets its near-dup component label (its own id for
    singletons) and ``keep = 1`` iff it is the component's canonical
    representative (min doc_id) — the list a training-data pipeline
    joins against the corpus to materialize the deduplicated set
    (``q_exact_dedup`` is the content-hash analogue; this is the
    fuzzy one). The distributed work is the pair stage; only the
    sparse cluster frame and one thin doc_id column reach the driver.

    Returns a DATASET of (doc_id, cluster_id, keep) covering every
    doc. The per-doc assignment runs INSIDE map_batches against the
    broadcast sparse label map (``ray.put`` once, read per task) — doc
    ids never ride to the driver, so the keep-list streams at corpus
    scale and can feed ``write_parquet`` / a downstream join directly;
    only the sparse cluster frame is driver-resident."""
    clusters = dup_clusters(ds, n=n, threshold=threshold,
                            tokenizer=tokenizer, max_group=max_group)
    label_ref = ray.put(dict(zip(
        clusters["doc_id"].to_numpy(np.int64),
        clusters["cluster_id"].to_numpy(np.int64),
    )))

    def assign(batch: pa.Table) -> pa.Table:
        label = ray.get(label_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = np.array([label.get(int(d), int(d)) for d in ids], np.int64)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "cluster_id": pa.array(cl, pa.int64()),
            "keep": pa.array((ids == cl).astype(np.int64), pa.int64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def dup_cluster_size_hist(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.0,
    tokenizer: str = "simple",
    max_group: int | None = DEFAULT_MAX_GROUP,
) -> pd.DataFrame:
    """Distribution of near-dup component sizes — the headline
    statistic of every dedup report (how much of the corpus sits in
    2-doc pairs vs 1000-doc template families decides whether trimming
    or dropping is the right action). Sizes come from the sparse
    cluster frame; docs in no pair count as singletons, inferred from
    one ``ds.count()`` (never a doc scan beyond the pair stage).

    Returns (cluster_size, n_clusters, n_docs) sorted by size, where
    size 1 aggregates all singletons."""
    clusters = dup_clusters(ds, n=n, threshold=threshold,
                            tokenizer=tokenizer, max_group=max_group)
    total = int(ds.count())
    sizes = clusters.groupby("cluster_id").size()
    hist = sizes.value_counts().sort_index()
    n_singletons = total - len(clusters)
    rows = []
    if n_singletons > 0:
        rows.append((1, n_singletons, n_singletons))
    for size, n_cl in hist.items():
        rows.append((int(size), int(n_cl), int(size) * int(n_cl)))
    return pd.DataFrame(
        rows, columns=["cluster_size", "n_clusters", "n_docs"]
    ).astype("int64")
