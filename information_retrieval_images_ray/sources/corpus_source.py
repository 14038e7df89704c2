"""Corpus sources for the index build.

Two supported input shapes (both Parquet, read with
``ray.data.read_parquet`` + column pruning — the Ray-native analogue of
the reference's directory scan + SQLite full scan,
/root/reference/db.py:106-122, db.py:360-371):

1. The primary source-code corpus (BASELINE.json input_hint):
   ``(repo, path, commit, lang, content)`` — no ids; dense uint64
   ``doc_id`` is assigned deterministically as the rank under a global
   sort by ``(repo, path, commit)`` (SURVEY.md §7.0).
2. The driver testdata ``documents`` table:
   ``(doc_id, text, lang, source, n_chars)`` — ids provided; ``text``
   is aliased to ``content``.
"""

from __future__ import annotations

import glob

import numpy as np
import pyarrow as pa
import ray.data


CORPUS_EXTS = (".parquet", ".csv", ".jsonl", ".json")


def corpus_files(path: str) -> list[str]:
    """Deterministic sorted list of corpus files under a dir (parquet,
    csv, or json-lines; mixed dirs are allowed — each file is read by
    the reader for its extension)."""
    if path.endswith(CORPUS_EXTS):
        return [path]
    out: list[str] = []
    for ext in CORPUS_EXTS:
        out.extend(glob.glob(f"{path}/*{ext}"))
    return sorted(out)


def cluster_blocks() -> int | None:
    """Blocks (and id partitions) for one corpus pass: 2x the cluster's
    CPUs, or None (Ray's default) before ``ray.init``.

    Coarse blocks keep every all-to-all exchange's object count
    proportional to the worker count: with many small files Ray's
    default per-file blocks make the exchange juggle blocks_in x
    blocks_out tiny plasma objects, and measured throughput COLLAPSES
    past ~16 workers (400k-doc corpus, 200 files: 74s at 32 CPUs with
    default blocks vs 43s with 2x-CPU blocks). On a real cluster this
    is the one-block-per-core-wave sizing rule."""
    if not ray.is_initialized():
        return None
    cpus = int(ray.cluster_resources().get("CPU", 0))
    return max(1, cpus * 2) if cpus else None


def read_code_corpus(path: str | list[str]) -> ray.data.Dataset:
    """Column-pruned corpus read; accepts a dir/file path or an
    explicit file list (the delta-extend path reads only NEW files).

    Parquet is read as ``cluster_blocks()`` blocks rather than one
    block per input file."""
    files = path if isinstance(path, list) else corpus_files(path)
    nb = cluster_blocks()

    cols = ["repo", "path", "commit", "lang", "content"]
    by_kind: dict[str, list[str]] = {}
    for f in files:
        if f.endswith(".parquet"):
            by_kind.setdefault("parquet", []).append(f)
        elif f.endswith(".csv"):
            by_kind.setdefault("csv", []).append(f)
        elif f.endswith((".jsonl", ".json")):
            by_kind.setdefault("json", []).append(f)
        else:
            raise ValueError(f"unsupported corpus file type: {f}")
    parts: list[ray.data.Dataset] = []
    if "parquet" in by_kind:
        parts.append(
            ray.data.read_parquet(
                by_kind["parquet"], columns=cols, override_num_blocks=nb
            )
        )
    if "csv" in by_kind:  # no column pushdown in CSV; select after read
        parts.append(ray.data.read_csv(by_kind["csv"]).select_columns(cols))
    if "json" in by_kind:  # json-lines
        parts.append(ray.data.read_json(by_kind["json"]).select_columns(cols))
    if not parts:
        raise ValueError(f"no corpus files found in {path}")
    ds = parts[0]
    for extra in parts[1:]:
        ds = ds.union(extra)
    return ds


def read_documents_table(sf_dir: str) -> ray.data.Dataset:
    """Driver testdata `documents` table normalized to corpus shape."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.uint64()),
                "content": batch["text"],
                "lang": batch["lang"],
                "repo": batch["source"],
                "path": pa.array(
                    [f"doc_{i}.txt" for i in batch["doc_id"].to_pylist()], pa.string()
                ),
                "commit": pa.nulls(batch.num_rows, pa.string()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


def assign_dense_doc_ids(
    ds: ray.data.Dataset,
    key_cols: tuple[str, ...] = ("repo", "path", "commit"),
    num_partitions: int | None = None,
    start_id: int = 0,
) -> ray.data.Dataset:
    """Assign dense uint64 ``doc_id`` = ``start_id`` + global rank
    under sort by key (``start_id`` > 0 is the delta-extend path:
    appended docs rank among THEMSELVES, offset past the existing
    index's doc_id span).

    Ray-native, no driver-side enumeration of rows, scales as a single
    range-partitioned sort:

    1. sample sort keys -> ``num_partitions - 1`` range boundaries
       (driver holds only the sample);
    2. narrow ``map_batches`` tags each row with its range partition
       ``pid`` (no shuffle);
    3. partition sizes without an exchange: each block of a key-only
       scan returns its per-``pid`` counts, the calling process sums
       them (``take_all``, at most blocks x partitions rows) and a cumsum
       gives every partition's first id;
    4. ``groupby(pid).map_groups`` over Arrow tables: sort the partition
       by (key, content) with ``Table.sort_by`` (stable, nulls last,
       UTF-8 in byte = code-point order) and append ``doc_id`` = the
       partition's first id + row position. This group-shuffle IS the
       global sort and the only all-to-all exchange.

    Duplicate keys (exact duplicate rows) get distinct adjacent ids via
    the secondary sort on ``content``; same input -> same ids. Ids are
    global ranks, so they do not depend on ``num_partitions``.

    ``num_partitions`` defaults to ``cluster_blocks()`` (2x cluster
    CPUs), the block count ``read_code_corpus`` reads with, so an id
    partition holds about one read block: at 10^12 rows a group fits
    wherever a read block fits. Ray's sort, not this number, sets how
    many reduce tasks run, so finer partitions only add per-group work
    and counted rows.
    """
    # NB: the separator sorts below every printable char, so the
    # joined-key order equals column-lexicographic order for keys
    # without control characters
    sep = "\x01"

    import pyarrow.compute as pc

    def make_key(batch: pa.Table) -> pa.Table:
        parts = [
            pc.coalesce(batch[c].cast(pa.string()), pa.scalar("", pa.string()))
            for c in key_cols
        ]
        keys = pc.binary_join_element_wise(*parts, sep)
        return batch.append_column("_sort_key", keys)

    # The content column never travels more than once: the boundary
    # sample (1) and the sizing pass (3) run over KEY-COLUMN-ONLY
    # scans (projection pushdown to parquet: ~1% of corpus bytes),
    # and only the final rank shuffle (4) reads full rows.
    keys_only = ds.select_columns(list(key_cols))

    # 1. boundaries from a seeded sample of the keys. Boundary
    #    placement only balances partition sizes — final ids are exact
    #    global ranks regardless of where the cuts land.
    n_rows = ds.count()  # metadata-only for parquet sources
    n_parts = num_partitions or cluster_blocks() or 1
    sample = (
        keys_only.random_sample(min(1.0, 20_000 / max(1, n_rows)), seed=42)
        .map_batches(make_key, batch_format="pyarrow")
        .select_columns(["_sort_key"])
    )
    keys = sorted(r["_sort_key"] for r in sample.take_all())
    if not keys:
        keys = [""]
    bounds = [
        keys[int(len(keys) * (i + 1) / n_parts)]
        for i in range(n_parts - 1)
        if int(len(keys) * (i + 1) / n_parts) < len(keys)
    ]
    bounds_arr = np.array(bounds, dtype=object)

    def tag(batch: pa.Table) -> pa.Table:
        k = np.array(batch["_sort_key"].to_pylist(), dtype=object)
        pid = np.searchsorted(bounds_arr, k, side="right").astype(np.int32)
        return batch.append_column("_pid", pa.array(pid, pa.int32()))

    # 3. partition sizes: key+tag+count fused in one map over the
    #    key-only scan, summed here
    def partial_counts(batch: pa.Table) -> pa.Table:
        pids = tag(make_key(batch))["_pid"].to_numpy()
        pid, cnt = np.unique(pids, return_counts=True)
        return pa.table({"_pid": pa.array(pid, pa.int32()), "n": pa.array(cnt, pa.int64())})

    counts = np.zeros(n_parts, dtype=np.int64)
    for r in keys_only.map_batches(partial_counts, batch_format="pyarrow",
                                   batch_size=None).take_all():
        counts[r["_pid"]] += r["n"]
    offsets = np.concatenate(([0], np.cumsum(counts))) + int(start_id)

    # 4. the one full-width pass + the one shuffle: key+tag fused,
    #    then per-partition sort + enumerate
    def key_and_tag(batch: pa.Table) -> pa.Table:
        return tag(make_key(batch))

    tagged = ds.map_batches(key_and_tag, batch_format="pyarrow", batch_size=None)

    def enumerate_group(g: pa.Table) -> pa.Table:
        first = offsets[g["_pid"][0].as_py()]
        order = [("_sort_key", "ascending")]
        if "content" in g.column_names:
            order.append(("content", "ascending"))
        g = g.sort_by(order).drop_columns(["_sort_key", "_pid"])
        ids = np.arange(g.num_rows, dtype=np.uint64) + np.uint64(first)
        return g.append_column("doc_id", pa.array(ids, pa.uint64()))

    return tagged.groupby("_pid").map_groups(enumerate_group, batch_format="pyarrow")
