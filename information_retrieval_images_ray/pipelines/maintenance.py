"""Index maintenance: delete (tombstones), metadata update, compaction.

The Ray-native re-expression of the reference's maintenance surface
(S7): ``delete_record`` (/root/reference/vector_db.py:54-58) and
``update_description`` (/root/reference/vector_db.py:61-91). Semantics:

- ``delete_docs`` appends a content-addressed tombstone Parquet file
  (atomic rename; idempotent — re-deleting the same set rewrites the
  same file). Readers load the tombstone set at init and exclude those
  docs from every top-k IMMEDIATELY; corpus statistics (N, df, avgdl)
  deliberately stay stale until compaction — the standard IR
  tombstone contract (deletes must be cheap at 10^12 docs; a delete
  that re-aggregated global stats would be a full shuffle per call).
- ``update_doc_meta`` rewrites ONE doc's metadata row inside its shard
  docmeta partition (the reference's query-then-upsert description
  update). Content changes are delete + ``extend_index`` re-append —
  postings are immutable by design.
- ``compact_index`` rebuilds the index WITHOUT tombstoned docs into a
  fresh directory, reusing the tokenized docterms checkpoint (no
  re-tokenize); its output is logically identical to a from-scratch
  build of the corpus minus the deleted docs (tested segment-by-term).

Scale notes: tombstones are a sorted int64 column, membership checks
are vectorized searchsorted over the loaded array; at web scale the
tombstone files shard by doc range exactly like docmeta. Compaction is
one streaming pipeline over docterms (filter -> the normal
stats/segment phases), resumable via the new dir's manifest.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..state.manifest import Manifest


def tombstones_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "tombstones")


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone a set of doc_ids (reference delete_record,
    vector_db.py:54-58). Returns the number of ids recorded. Atomic
    and idempotent: the file name is the content hash of the sorted id
    set, so a retried delete overwrites its own file."""
    ids = np.array(sorted({int(d) for d in doc_ids}), dtype=np.int64)
    if len(ids) == 0:
        return 0
    tdir = tombstones_dir(index_dir)
    os.makedirs(tdir, exist_ok=True)
    name = hashlib.sha256(ids.tobytes()).hexdigest()[:16]
    path = os.path.join(tdir, f"del-{name}.parquet")
    tmp = path + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}), tmp)
    os.replace(tmp, path)
    return len(ids)


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique int64 array of all tombstoned doc_ids."""
    files = sorted(glob.glob(os.path.join(tombstones_dir(index_dir), "*.parquet")))
    if not files:
        return np.empty(0, dtype=np.int64)
    parts = [pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy() for f in files]
    return np.unique(np.concatenate(parts).astype(np.int64))


def is_tombstoned(tomb: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``ids`` in the sorted tombstone array
    (searchsorted, no python sets)."""
    if len(tomb) == 0:
        return np.zeros(len(ids), dtype=bool)
    pos = np.searchsorted(tomb, ids)
    pos_c = np.minimum(pos, len(tomb) - 1)
    return (pos < len(tomb)) & (tomb[pos_c] == ids)


def update_doc_meta(index_dir: str, doc_id: int, **fields) -> bool:
    """Rewrite one doc's metadata columns in its shard's docmeta
    partition (reference update_description, vector_db.py:61-91).
    Returns True if the doc was found. Shard-partition granularity:
    only the doc's shard files are read and atomically rewritten."""
    from .build import docmeta_shard_dir, make_shard_of

    with open(os.path.join(index_dir, "stats.json")) as f:
        bounds = json.load(f)["shard_bounds"]
    shard = int(make_shard_of(bounds)(np.array([doc_id]))[0])
    sdir = docmeta_shard_dir(index_dir, shard)
    found = False
    for f in sorted(glob.glob(os.path.join(sdir, "*.parquet"))):
        t = pq.read_table(f)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = ids == doc_id
        if not hit.any():
            continue
        cols = {}
        for name in t.column_names:
            if name in fields:
                arr = t[name].to_pylist()
                for i in np.flatnonzero(hit):
                    arr[i] = fields[name]
                cols[name] = pa.array(arr, t.schema.field(name).type)
            else:
                cols[name] = t[name]
        unknown = set(fields) - set(t.column_names)
        if unknown:
            raise KeyError(f"docmeta has no columns {sorted(unknown)}")
        tmp = f + ".tmp"
        pq.write_table(pa.table(cols), tmp)
        os.replace(tmp, f)
        found = True
    return found


def compact_index(index_dir: str, out_dir: str) -> dict:
    """Materialize the tombstones: rebuild into ``out_dir`` without the
    deleted docs, reusing the tokenized docterms checkpoint (no raw
    text is ever re-read). Stats, segments and docmeta are all
    recomputed over the surviving docs, so the result
    is logically identical to a fresh build of the corpus minus the
    deletions (tests/test_maintenance.py proves segment-level
    equality). Resumable and idempotent via ``out_dir``'s manifest."""
    import shutil

    from .build import IndexBuildConfig, _parquet_size, build_index

    if os.path.abspath(out_dir) == os.path.abspath(index_dir):
        raise ValueError("compact_index writes to a NEW directory")
    with open(os.path.join(index_dir, "manifest.json")) as f:
        # normalized, so out_dir's manifest hashes the same config that
        # build_index will (an older manifest may carry retired keys)
        cfg = dict(IndexBuildConfig(**json.load(f)["config"]))

    tomb = load_tombstones(index_dir)
    tomb_hash = hashlib.sha256(tomb.tobytes()).hexdigest()[:16]

    # resume/idempotency is keyed by the TOMBSTONE SET, not just
    # "out_dir exists": tombstones added after an earlier (finished or
    # killed) compact into the same out_dir must re-materialize, so a
    # stale out_dir is wiped and rebuilt
    out_stats = os.path.join(out_dir, "stats.json")
    out_man = os.path.join(out_dir, "manifest.json")
    if os.path.exists(out_man):
        with open(out_man) as f:
            entries = json.load(f).get("entries", {})
        recorded = entries.get("docterms", {}).get("tomb_hash")
        if recorded != tomb_hash:
            shutil.rmtree(out_dir, ignore_errors=True)
        elif entries.get("docmeta", {}).get("status") == "done" and os.path.exists(
            out_stats
        ):  # already compacted against this exact tombstone set
            # the sidecar carry runs AFTER the build phases, so a crash
            # in that window leaves a half-written positions/ dir that
            # this early return would otherwise never repair; the call
            # is marker-idempotent (instant no-op once complete)
            from .positions import compact_positions_sidecar

            compact_positions_sidecar(index_dir, out_dir)
            with open(out_stats) as f:
                return json.load(f)

    os.makedirs(out_dir, exist_ok=True)
    man = Manifest.load_or_create(out_dir, dict(cfg))

    # filtered docterms -> the new index's tokenize checkpoint
    out_dt = os.path.join(out_dir, "docterms")
    if not man.is_done("docterms"):
        shutil.rmtree(out_dt, ignore_errors=True)  # clear a crashed write
        src = ray.data.read_parquet(os.path.join(index_dir, "docterms"))

        def drop_tombstoned(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            return batch.filter(pa.array(~is_tombstoned(tomb, ids)))

        src.map_batches(drop_tombstoned, batch_format="pyarrow").write_parquet(out_dt)
        man.mark_done("docterms", **_parquet_size(out_dt),
                      compacted_from=os.path.abspath(index_dir),
                      n_tombstoned=int(len(tomb)), tomb_hash=tomb_hash)

    # remaining phases are the ordinary build over the checkpoint
    stats = build_index(None, out_dir, **cfg)
    # a sidecar on the source index follows the compaction (re-sharded
    # by the new bounds, tombstoned rows dropped); no-op without one
    from .positions import compact_positions_sidecar

    compact_positions_sidecar(index_dir, out_dir)
    return stats


def merge_indexes(index_dirs: list[str], out_dir: str) -> dict:
    """Segment merge: combine N indexes whose doc_id spaces are
    pairwise disjoint (the engine's append-only id contract) into one
    index — the multi-way analogue of Lucene's segment merge, and the
    way independently-built partition indexes (per day, per source)
    become one searchable index. Reuses every input's tokenized
    docterms checkpoint (no raw text is re-read); each input's
    tombstones are materialized during the merge (so merge doubles as
    a multi-input compaction); the remaining phases are the ordinary
    build over the combined checkpoint. Configs must match except
    shard count (the merged index gets the summed shard count, keeping
    per-shard size). Idempotent/resumable via ``out_dir``'s manifest,
    keyed by the input set + tombstone state. Positions sidecars merge
    too when EVERY input has one (filtered + re-sharded by the merged
    bounds)."""
    import shutil

    from .build import IndexBuildConfig, _parquet_size, build_index

    if len(index_dirs) < 2:
        raise ValueError("merge_indexes needs at least two inputs")
    for d in index_dirs:
        if os.path.abspath(d) == os.path.abspath(out_dir):
            raise ValueError("merge_indexes writes to a NEW directory")

    cfgs, stats_list, tombs = [], [], []
    for d in index_dirs:
        with open(os.path.join(d, "manifest.json")) as f:
            cfgs.append(dict(IndexBuildConfig(**json.load(f)["config"])))
        with open(os.path.join(d, "stats.json")) as f:
            stats_list.append(json.load(f))
        tombs.append(load_tombstones(d))
    base = {k: v for k, v in cfgs[0].items() if k != "num_shards"}
    for c in cfgs[1:]:
        if {k: v for k, v in c.items() if k != "num_shards"} != base:
            raise ValueError(
                "merge_indexes needs identical configs (tokenizer, k1, b, "
                "codec) across inputs; only shard count may differ"
            )
    # disjointness: doc ranges from docmeta parquet column stats
    spans = []
    for d in index_dirs:
        lo, hi = None, None
        for f in glob.glob(os.path.join(d, "docmeta", "**", "*.parquet"),
                           recursive=True):
            md = pq.read_metadata(f)
            names = {md.schema.column(i).name: i for i in range(md.num_columns)}
            ci = names["doc_id"]
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                if st is None or not st.has_min_max:
                    continue
                lo = st.min if lo is None else min(lo, st.min)
                hi = st.max if hi is None else max(hi, st.max)
        if lo is None:
            raise ValueError(
                f"merge_indexes: {d} yields no doc_id row-group statistics "
                "(empty or stats-less docmeta) — cannot prove id-range "
                "disjointness; rebuild the input index"
            )
        spans.append((lo, hi, d))
    for (lo1, hi1, d1) in spans:
        for (lo2, hi2, d2) in spans:
            if d1 < d2 and not (hi1 < lo2 or hi2 < lo1):
                raise ValueError(
                    f"doc_id ranges overlap: {d1} [{lo1},{hi1}] vs "
                    f"{d2} [{lo2},{hi2}] — merge needs disjoint id spaces"
                )

    # (abspath, tomb_hash) PAIRS sorted by path — a flattened sorted
    # list would collide for two states whose multisets match while the
    # dir->tombstone pairing differs, wrongly reusing a stale out_dir
    merge_hash = hashlib.sha256(json.dumps(sorted(
        (os.path.abspath(d), hashlib.sha256(t.tobytes()).hexdigest())
        for d, t in zip(index_dirs, tombs)
    )).encode()).hexdigest()[:16]
    out_stats = os.path.join(out_dir, "stats.json")
    out_man = os.path.join(out_dir, "manifest.json")
    if os.path.exists(out_man):
        with open(out_man) as f:
            entries = json.load(f).get("entries", {})
        recorded = entries.get("docterms", {}).get("merge_hash")
        if recorded != merge_hash:
            shutil.rmtree(out_dir, ignore_errors=True)
        elif entries.get("docmeta", {}).get("status") == "done" and os.path.exists(
            out_stats
        ):
            # repair a sidecar carry interrupted between build completion
            # and sidecar completion (marker-idempotent, see compact)
            from .positions import merge_positions_sidecars

            tomb_all = (
                np.unique(np.concatenate(tombs)) if any(len(t) for t in tombs)
                else np.empty(0, dtype=np.int64)
            )
            merge_positions_sidecars(index_dirs, out_dir, tomb_all)
            with open(out_stats) as f:
                return json.load(f)

    cfg = dict(cfgs[0])
    cfg["num_shards"] = sum(s["num_shards"] for s in stats_list)
    os.makedirs(out_dir, exist_ok=True)
    man = Manifest.load_or_create(out_dir, dict(cfg))

    tomb_all = (
        np.unique(np.concatenate(tombs)) if any(len(t) for t in tombs)
        else np.empty(0, dtype=np.int64)
    )
    out_dt = os.path.join(out_dir, "docterms")
    if not man.is_done("docterms"):
        shutil.rmtree(out_dt, ignore_errors=True)
        files = [
            f for d in index_dirs
            for f in sorted(glob.glob(
                os.path.join(d, "docterms", "**", "*.parquet"), recursive=True))
        ]
        src = ray.data.read_parquet(files)

        def drop_tombstoned(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            return batch.filter(pa.array(~is_tombstoned(tomb_all, ids)))

        src.map_batches(drop_tombstoned, batch_format="pyarrow").write_parquet(out_dt)
        man.mark_done("docterms", **_parquet_size(out_dt),
                      merged_from=[os.path.abspath(d) for d in index_dirs],
                      merge_hash=merge_hash)

    stats = build_index(None, out_dir, **cfg)

    # sidecars merge only when every input has one (else phrase modes
    # stay explicitly unavailable on the merged index until rebuilt)
    from .positions import merge_positions_sidecars

    merge_positions_sidecars(index_dirs, out_dir, tomb_all)
    return stats
