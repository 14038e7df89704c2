"""End-to-end training-data export: the composed pipeline a user of
this engine actually ships corpus snapshots with.

One verb chains the training-data operators that already exist as
first-class stages — fused Gopher quality filter (analysis.py), exact
content dedup (the keep-set shape of ``build_index(dedup=True)``),
deterministic hash-bucket split assignment (analysis.split_summary) —
and lands the survivors as hive-partitioned parquet
(``split=X/lang=Y/``) with per-doc token counts and a JSON manifest.
The reference's analogue is its batch labeling driver (main.py) whose
output IS its training set; here the export is the LLM-data form.

Scale shape (the 100-TB contract):
- The expensive per-doc quality pass runs ONCE: its survivors spill
  to a temp parquet (streamed, compressed) that both the dedup
  keep-set pass and the final write read back, so nothing
  corpus-sized is recomputed or pinned in plasma.
- Dedup never shuffles OR re-hashes text: ``content_md5`` is stamped
  while the text already streams through the quality spill, so the
  keep-set pass is a column-pruned (doc_id, content_md5) read into a
  combiner-backed Min aggregate; only the surviving-id set travels,
  broadcast as one sorted array that every task filters against.
- Split assignment is md5(doc_id)-bucketed — stable under
  re-partitioning, resume and incremental extends, so a doc never
  migrates between splits as the corpus grows.
- The output is partitioned by (split, lang) and manifest-gated like
  build_index: re-running a COMPLETED export is a no-op returning the
  recorded summary; a crashed run (data present, no ``_export.json``)
  restarts clean — the pipeline is deterministic, so the fresh pass
  re-lands identical partitions. The summary is computed from the
  WRITTEN files (column-pruned read), so what is reported is what is
  on disk.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from .analysis import quality_filter
from .build import _isin_sorted
from ..functions.hashing import md5_u64

logger = logging.getLogger(__name__)


def export_training_data(
    ds: ray.data.Dataset,
    out_dir: str,
    tokenizer: str = "simple",
    train: int = 80,
    val: int = 10,
) -> pd.DataFrame:
    """Quality-filter -> exact-dedup -> split-assign -> partitioned
    parquet under ``out_dir``; returns the per-(split, lang) summary
    (n_docs, total_tokens, min/max doc_id) computed from the written
    output. ``ds`` must carry (doc_id, text, lang)."""
    data_dir = os.path.join(out_dir, "data")
    manifest_path = os.path.join(out_dir, "_export.json")
    if os.path.exists(manifest_path) and os.path.isdir(data_dir):
        # completed export: idempotent no-op, summary from the manifest
        # (the build_index is_done resume shape)
        with open(manifest_path) as f:
            parts = json.load(f)["partitions"]
        cols = ["split", "lang", "n_docs", "total_tokens",
                "min_doc_id", "max_doc_id"]
        if not parts:  # empty export: keep the summary schema stable
            return pd.DataFrame(columns=cols).astype(
                {c: "int64" for c in cols[2:]})
        return pd.DataFrame(parts)[cols]
    if os.path.exists(out_dir):
        leftovers = [e for e in os.listdir(out_dir)
                     if e not in ("data", "_kept_tmp", "_export.json.tmp")]
        if leftovers:
            raise ValueError(
                f"export_training_data writes to a NEW directory; {out_dir} "
                f"holds foreign entries {leftovers[:5]}")
        # crashed previous run (no manifest): restart clean — the
        # pipeline is deterministic, so a fresh pass re-lands the same
        # partitions
        shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    kept_dir = os.path.join(out_dir, "_kept_tmp")
    shutil.rmtree(kept_dir, ignore_errors=True)

    # -- pass 1: the per-doc quality decision, spilled once ----------------
    # content_md5 is stamped HERE, while the text already streams
    # through this stage, so the dedup pass never re-reads or re-hashes
    # the corpus text — it column-prunes the thin (doc_id, content_md5)
    # pair out of the spill
    import pyarrow.compute as pc

    def keep_only(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["keep"], 1)).select(
            ["doc_id", "text", "lang", "n_tokens"]
        )
        hx = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return batch.append_column("content_md5", pa.array(hx, pa.string()))

    (
        quality_filter(ds, tokenizer, passthrough=("text", "lang"))
        .map_batches(keep_only, batch_format="pyarrow")
        .write_parquet(kept_dir)
    )

    _SUMMARY_COLS = ["split", "lang", "n_docs", "total_tokens",
                     "min_doc_id", "max_doc_id"]
    if not (os.path.isdir(kept_dir)
            and any(e.endswith(".parquet") for e in os.listdir(kept_dir))):
        # the quality filter kept ZERO docs: a valid (if suspicious)
        # outcome — land an empty export instead of crashing on the
        # missing spill dir
        shutil.rmtree(kept_dir, ignore_errors=True)
        os.makedirs(data_dir, exist_ok=True)
        summary = pd.DataFrame(columns=_SUMMARY_COLS).astype(
            {c: "int64" for c in _SUMMARY_COLS[2:]})
        manifest = {
            "tokenizer": tokenizer, "train": train, "val": val,
            "dedup": "exact-md5-min-id", "dedup_filter": "exact",
            "n_distinct": 0, "partitions": [],
        }
        tmp = os.path.join(out_dir, "_export.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, manifest_path)
        logger.warning("export: quality filter kept 0 of the input docs; "
                       "wrote an empty export to %s", out_dir)
        return summary

    # -- pass 2: dedup keep-set over the spill (thin md5/doc_id stream) ----
    keep_tbl = (
        ray.data.read_parquet(kept_dir, columns=["doc_id", "content_md5"])
        .groupby("content_md5")
        .aggregate(Min("doc_id", alias_name="doc_id"))
    )
    keep_ids = np.sort(np.concatenate([
        b["doc_id"].to_numpy()
        for b in keep_tbl.iter_batches(batch_format="pyarrow")
    ] or [np.empty(0, np.int64)]).astype(np.int64))
    keep_ref = ray.put(keep_ids)

    # -- pass 3: survivor filter + split assign + partitioned land ---------
    cut_val = train + val

    def finalize(batch: pa.Table) -> pa.Table:
        keep = ray.get(keep_ref)  # broadcast once, local-store hit
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        batch = batch.filter(pa.array(_isin_sorted(ids, keep)))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        buckets = np.fromiter(
            (md5_u64(str(int(d))) % 100 for d in ids),
            dtype=np.int64, count=len(ids),
        )
        split = np.where(buckets < train, "train",
                         np.where(buckets < cut_val, "val", "test"))
        batch = batch.drop_columns(["content_md5"])  # spill-internal
        return batch.append_column("split", pa.array(split.tolist(), pa.string()))

    (
        ray.data.read_parquet(kept_dir)
        .map_batches(finalize, batch_format="pyarrow")
        .write_parquet(data_dir, partition_cols=["split", "lang"])
    )
    shutil.rmtree(kept_dir, ignore_errors=True)

    # -- summary from the WRITTEN output (thin columns only) ---------------
    summary = (
        ray.data.read_parquet(data_dir, columns=["doc_id", "n_tokens",
                                                 "split", "lang"])
        .groupby(["split", "lang"])
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_tokens", alias_name="total_tokens"),
            Min("doc_id", alias_name="min_doc_id"),
            Max("doc_id", alias_name="max_doc_id"),
        )
        .to_pandas()
        .sort_values(["split", "lang"]).reset_index(drop=True)
        .astype({"n_docs": "int64", "total_tokens": "int64",
                 "min_doc_id": "int64", "max_doc_id": "int64"})
    )

    manifest = {
        "tokenizer": tokenizer, "train": train, "val": val,
        "dedup": "exact-md5-min-id",
        "dedup_filter": "exact", "n_distinct": len(keep_ids),
        "partitions": summary.to_dict(orient="records"),
    }
    tmp = os.path.join(out_dir, "_export.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, manifest_path)
    return summary
