"""Positional-postings sidecar: token positions per (term, doc), and
the query operators they enable — positional phrase verification,
proximity search (all terms within a token window) and ordered
span-near — plus the token-domain snippet window (``best_window``).

The sidecar is what the ``phrase`` / ``proximity`` / ``span_near``
plans verify their conjunctive candidates against
(``IndexReader._verify``): at query time a phrase touches only the
(term, doc_id, positions) rows of its terms — a predicate-pushdown
parquet read — never the corpus, the standard fulltext-index trade
(Lucene stores positions in the postings for exactly this) of
build-time cost and index bytes for query-time reads.

Layout: ``<index_dir>/positions/shard=K/*.parquet`` with rows
``(term, doc_id: int64, positions: list<int32>)``; positions are
0-based token indexes under the SAME tokenizer the index was built
with (read from stats.json). Files are hive-partitioned by the
index's doc-range shard and term-sorted within each partition, so a
query's term list prunes twice: shard dirs by candidate doc range and
row groups by term min/max statistics. The sidecar is strictly
additive — segments, docmeta and stats are untouched, and readers
that never ask for positions never pay for them.

Scale: the build is one tokenize pass + one (shard, term) sort
exchange — the same exchange class as the segment build; the verify
stage is a ``groupby(doc_id).map_groups`` over ONLY the pruned rows
(bounded by the rarest term's df), never a corpus scan.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..functions.tokenizer import get_tokenizer


def positions_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "positions")


def build_positions_sidecar(ds: ray.data.Dataset, index_dir: str) -> dict:
    """Tokenize the corpus once more, emitting per-(term, doc) position
    lists, hive-partitioned by the index's shard function. Idempotent
    via a marker file (re-running on a finished sidecar is a no-op);
    a crashed build is detected by the missing marker and rebuilt."""
    import shutil

    from .build import make_shard_of

    pdir = positions_dir(index_dir)
    marker = os.path.join(pdir, "_positions.json")
    if os.path.exists(marker):
        with open(marker) as f:
            return json.load(f)
    shutil.rmtree(pdir, ignore_errors=True)

    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    shard_of = make_shard_of(stats["shard_bounds"])
    tokenizer = stats["tokenizer"]

    class PositionsStage:
        def __init__(self):
            self._tok = get_tokenizer(tokenizer)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            out_t: list[str] = []
            out_d: list[int] = []
            out_p: list[list[int]] = []
            for did, text in zip(ids, batch["content"].to_pylist()):
                by_term: dict[str, list[int]] = {}
                for i, t in enumerate(self._tok(text or "")):
                    by_term.setdefault(t, []).append(i)
                for t, p in by_term.items():
                    out_t.append(t)
                    out_d.append(int(did))
                    out_p.append(p)
            docs = pa.array(out_d, pa.int64())
            return pa.table({
                "term": pa.array(out_t, pa.string()),
                "doc_id": docs,
                "positions": pa.array(out_p, pa.large_list(pa.int32())),
                "shard": pa.array(
                    shard_of(np.asarray(out_d, np.int64)), pa.int32()),
            })

    (
        ds.map_batches(PositionsStage, batch_format="pyarrow", concurrency=(1, 8))
        .sort(["shard", "term"])
        .write_parquet(pdir, partition_cols=["shard"], compression="zstd")
    )
    n_rows = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(pdir, "**", "*.parquet"), recursive=True)
    )
    info = {"rows": n_rows, "tokenizer": tokenizer,
            "doc_id_span": stats["doc_id_span"]}
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(info, f)
    os.replace(tmp, marker)
    return info


def extend_positions_sidecar(delta_ds, index_dir: str) -> dict | None:
    """Append the delta docs' position lists to an existing sidecar so
    phrase/proximity stay correct after ``extend_index`` (without this
    the sidecar silently lacked the new docs and verification dropped
    their true matches). No-op when no sidecar was ever built. New
    docs land in NEW shards, so appending files into the hive layout
    never touches existing partitions. Crash-safe: the delta is
    written to a staging dir, moved in under a delta-unique filename
    prefix (a rerun first removes files with that prefix), and the
    marker — which carries the covered ``doc_id_span`` — is replaced
    LAST; the staleness check in ``_read_positions`` refuses to serve
    a sidecar whose span lags the index."""
    import shutil

    from .build import make_shard_of

    pdir = positions_dir(index_dir)
    marker = os.path.join(pdir, "_positions.json")
    if not os.path.exists(marker):
        return None  # sidecar not in use
    with open(marker) as f:
        info = json.load(f)
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    span = stats["doc_id_span"]
    if info.get("doc_id_span") == span:
        return info  # already current (idempotent resume)
    prefix = f"delta{span}_"
    for old in glob.glob(os.path.join(pdir, "**", f"{prefix}*.parquet"),
                         recursive=True):
        os.remove(old)  # crashed previous attempt

    shard_of = make_shard_of(stats["shard_bounds"])
    tokenizer = stats["tokenizer"]

    class PositionsStage:
        def __init__(self):
            self._tok = get_tokenizer(tokenizer)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            out_t: list[str] = []
            out_d: list[int] = []
            out_p: list[list[int]] = []
            for did, text in zip(ids, batch["content"].to_pylist()):
                by_term: dict[str, list[int]] = {}
                for i, t in enumerate(self._tok(text or "")):
                    by_term.setdefault(t, []).append(i)
                for t, p in by_term.items():
                    out_t.append(t)
                    out_d.append(int(did))
                    out_p.append(p)
            docs = pa.array(out_d, pa.int64())
            return pa.table({
                "term": pa.array(out_t, pa.string()),
                "doc_id": docs,
                "positions": pa.array(out_p, pa.large_list(pa.int32())),
                "shard": pa.array(
                    shard_of(np.asarray(out_d, np.int64)), pa.int32()),
            })

    staging = pdir.rstrip(os.sep) + f".delta_tmp_{span}"
    shutil.rmtree(staging, ignore_errors=True)
    (
        delta_ds.map_batches(PositionsStage, batch_format="pyarrow",
                             concurrency=(1, 8))
        .sort(["shard", "term"])
        .write_parquet(staging, partition_cols=["shard"], compression="zstd")
    )
    n_new = 0
    for i, f in enumerate(sorted(glob.glob(
            os.path.join(staging, "**", "*.parquet"), recursive=True))):
        shard_part = os.path.basename(os.path.dirname(f))
        tgt_dir = os.path.join(pdir, shard_part)
        os.makedirs(tgt_dir, exist_ok=True)
        n_new += pq.read_metadata(f).num_rows
        os.rename(f, os.path.join(tgt_dir, f"{prefix}{i}.parquet"))
    shutil.rmtree(staging, ignore_errors=True)
    info = {"rows": info["rows"] + n_new, "tokenizer": tokenizer,
            "doc_id_span": span}
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(info, f)
    os.replace(tmp, marker)
    return info


def compact_positions_sidecar(index_dir: str, out_dir: str) -> dict | None:
    """Carry the positions sidecar through compaction: drop the
    tombstoned docs' rows and re-shard by the COMPACTED index's bounds
    (compaction recomputes shard bounds over the survivors, so the old
    hive partitioning no longer matches). No-op when the source index
    has no sidecar; idempotent via the output marker (compact_index
    wipes a stale out_dir wholesale, marker included, when the
    tombstone set changes)."""
    import shutil

    from .build import make_shard_of
    from .maintenance import is_tombstoned, load_tombstones

    src_marker = os.path.join(positions_dir(index_dir), "_positions.json")
    if not os.path.exists(src_marker):
        return None
    out_pdir = positions_dir(out_dir)
    out_marker = os.path.join(out_pdir, "_positions.json")
    if os.path.exists(out_marker):
        with open(out_marker) as f:
            return json.load(f)
    shutil.rmtree(out_pdir, ignore_errors=True)

    with open(os.path.join(out_dir, "stats.json")) as f:
        stats = json.load(f)
    shard_of = make_shard_of(stats["shard_bounds"])
    tomb = load_tombstones(index_dir)

    def reshard(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        batch = batch.filter(pa.array(~is_tombstoned(tomb, ids)))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "shard", pa.array(shard_of(ids), pa.int32()))

    (
        ray.data.read_parquet(
            positions_dir(index_dir), columns=["term", "doc_id", "positions"])
        .map_batches(reshard, batch_format="pyarrow")
        .sort(["shard", "term"])
        .write_parquet(out_pdir, partition_cols=["shard"], compression="zstd")
    )
    n_rows = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(out_pdir, "**", "*.parquet"),
                           recursive=True)
    )
    info = {"rows": n_rows, "tokenizer": stats["tokenizer"],
            "doc_id_span": stats["doc_id_span"]}
    tmp = out_marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(info, f)
    os.replace(tmp, out_marker)
    return info


def merge_positions_sidecars(index_dirs, out_dir: str, tomb) -> dict | None:
    """Sidecar counterpart of ``merge_indexes``: when EVERY input has
    a sidecar, union their rows (minus the merged tombstone set) and
    re-shard by the merged index's bounds; when any input lacks one,
    no-op (phrase modes on the merged index then require an explicit
    rebuild, same contract as a fresh index)."""
    import shutil

    import numpy as np

    from .build import make_shard_of
    from .maintenance import is_tombstoned

    markers = [os.path.join(positions_dir(d), "_positions.json")
               for d in index_dirs]
    if not all(os.path.exists(m) for m in markers):
        return None
    out_pdir = positions_dir(out_dir)
    out_marker = os.path.join(out_pdir, "_positions.json")
    if os.path.exists(out_marker):
        with open(out_marker) as f:
            return json.load(f)
    shutil.rmtree(out_pdir, ignore_errors=True)

    with open(os.path.join(out_dir, "stats.json")) as f:
        stats = json.load(f)
    shard_of = make_shard_of(stats["shard_bounds"])
    files = [
        f for d in index_dirs
        for f in sorted(glob.glob(
            os.path.join(positions_dir(d), "**", "*.parquet"), recursive=True))
    ]

    def reshard(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        batch = batch.filter(pa.array(~is_tombstoned(tomb, ids)))
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "shard", pa.array(shard_of(ids), pa.int32()))

    (
        ray.data.read_parquet(files, columns=["term", "doc_id", "positions"])
        .map_batches(reshard, batch_format="pyarrow")
        .sort(["shard", "term"])
        .write_parquet(out_pdir, partition_cols=["shard"], compression="zstd")
    )
    n_rows = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(out_pdir, "**", "*.parquet"),
                           recursive=True)
    )
    info = {"rows": n_rows, "tokenizer": stats["tokenizer"],
            "doc_id_span": stats["doc_id_span"]}
    tmp = out_marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(info, f)
    os.replace(tmp, out_marker)
    return info


def _read_positions(
    index_dir: str, terms: list[str], doc_ids: np.ndarray | None = None,
) -> ray.data.Dataset:
    """Pushdown-pruned sidecar read: only the requested terms' rows
    (row-group stats skip non-matching term ranges — the files are
    term-sorted) and, when given, only candidate doc_ids."""
    import pyarrow.dataset as pads

    marker = os.path.join(positions_dir(index_dir), "_positions.json")
    with open(marker) as f:
        _info = json.load(f)
    if "doc_id_span" in _info:
        with open(os.path.join(index_dir, "stats.json")) as f:
            _span = json.load(f)["doc_id_span"]
        if _info["doc_id_span"] != _span:
            raise RuntimeError(
                f"positions sidecar covers doc span {_info['doc_id_span']} "
                f"but the index spans {_span} — run extend_positions_sidecar "
                "with the delta (extend_index does this automatically) or "
                "rebuild the sidecar"
            )
    filt = pads.field("term").isin(sorted(set(terms)))
    if doc_ids is not None:
        filt = filt & pads.field("doc_id").isin(pa.array(doc_ids, pa.int64()))
    return ray.data.read_parquet(
        positions_dir(index_dir),
        columns=["term", "doc_id", "positions"],
        filter=filt,
    )


def verify_phrase_positions(
    index_dir: str, phrase: list[str], cand_ids: np.ndarray,
) -> np.ndarray:
    """Doc ids among ``cand_ids`` whose token stream contains the exact
    contiguous ``phrase`` — decided ENTIRELY from the sidecar. Per doc:
    chain-intersect successive terms' positions shifted by one (the
    classic positional-postings phrase merge); duplicate phrase terms
    reuse the same position list shifted, which is exactly the
    contiguity test. Runs as groupby(doc_id).map_groups over the pruned
    rows."""
    if not len(cand_ids) or not phrase:
        return np.empty(0, np.int64)
    ds = _read_positions(index_dir, phrase, cand_ids)

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        pos = {t: np.asarray(p, np.int64) for t, p in zip(g["term"], g["positions"])}
        cur = pos.get(phrase[0])
        for t in phrase[1:]:
            if cur is None or not len(cur):
                cur = None
                break
            nxt = pos.get(t)
            if nxt is None:
                cur = None
                break
            cur = np.intersect1d(cur + 1, nxt, assume_unique=True)
        if cur is None or not len(cur):
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64")})
        return pd.DataFrame({"doc_id": [int(g["doc_id"].iloc[0])]})

    out = ds.groupby("doc_id").map_groups(per_doc).to_pandas()
    if out.empty:
        return np.empty(0, np.int64)
    return np.sort(out["doc_id"].to_numpy(np.int64))


def verify_proximity_positions(
    index_dir: str, terms: list[str], window: int, cand_ids: np.ndarray,
) -> np.ndarray:
    """Doc ids among ``cand_ids`` where ONE occurrence of EVERY term
    fits inside a ``window``-token span (max chosen position - min
    chosen position <= window, unordered). Minimal-cover sweep over the
    label-merged sorted positions: advance the left edge, track
    per-term counts, test the span whenever all terms are covered —
    O(total positions) per doc."""
    uniq = sorted(set(terms))
    if not len(cand_ids) or not uniq:
        return np.empty(0, np.int64)
    ds = _read_positions(index_dir, uniq, cand_ids)
    need = len(uniq)

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        pos = {t: np.asarray(p, np.int64) for t, p in zip(g["term"], g["positions"])}
        if len(pos) < need:
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64")})
        labels = np.concatenate([
            np.full(len(p), i, np.int64) for i, t in enumerate(uniq)
            for p in (pos[t],)
        ])
        merged = np.concatenate([pos[t] for t in uniq])
        order = np.argsort(merged, kind="mergesort")
        merged, labels = merged[order], labels[order]
        cnt = np.zeros(need, np.int64)
        covered = 0
        lo = 0
        ok = False
        for hi in range(len(merged)):
            cnt[labels[hi]] += 1
            if cnt[labels[hi]] == 1:
                covered += 1
            while cnt[labels[lo]] > 1:
                cnt[labels[lo]] -= 1
                lo += 1
            if covered == need and merged[hi] - merged[lo] <= window:
                ok = True
                break
        if not ok:
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64")})
        return pd.DataFrame({"doc_id": [int(g["doc_id"].iloc[0])]})

    out = ds.groupby("doc_id").map_groups(per_doc).to_pandas()
    if out.empty:
        return np.empty(0, np.int64)
    return np.sort(out["doc_id"].to_numpy(np.int64))


def verify_spannear_positions(
    index_dir: str, terms: list[str], window: int, cand_ids: np.ndarray,
) -> np.ndarray:
    """Doc ids among ``cand_ids`` containing the terms IN QUERY ORDER
    within a ``window``-token span: exists p0 < p1 < ... < p_{n-1}
    (each p_i an occurrence of terms[i]) with p_{n-1} - p0 <= window.
    The ordered counterpart of ``verify_proximity_positions`` — the
    Lucene span_near(in_order=true) shape. Greedy minimal chain per
    start: from each occurrence of the first term, take the SMALLEST
    strictly-greater position of each subsequent term (searchsorted);
    a chain ending within the window from the tightest possible start
    proves the span, and no chain can end earlier than the greedy one.
    Runs as groupby(doc_id).map_groups over the pushdown-pruned
    sidecar rows — never a corpus scan."""
    if not len(cand_ids) or not terms:
        return np.empty(0, np.int64)
    ds = _read_positions(index_dir, terms, cand_ids)

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        pos = {t: np.asarray(p, np.int64) for t, p in zip(g["term"], g["positions"])}
        lists = [pos.get(t) for t in terms]
        empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64")})
        if any(p is None or not len(p) for p in lists):
            return empty
        for start in lists[0]:
            cur = start
            ok = True
            for p in lists[1:]:
                j = int(np.searchsorted(p, cur, side="right"))
                if j >= len(p):
                    ok = False
                    break
                cur = int(p[j])
            if ok and cur - int(start) <= window:
                return pd.DataFrame({"doc_id": [int(g["doc_id"].iloc[0])]})
        return empty

    out = ds.groupby("doc_id").map_groups(per_doc).to_pandas()
    if out.empty:
        return np.empty(0, np.int64)
    return np.sort(out["doc_id"].to_numpy(np.int64))


def best_window(
    tokens: list[str], qterms: set[str], window: int,
) -> tuple[int, int] | None:
    """The best fixed-``window``-token snippet of a token stream for
    highlighting: (start, n_match), the start maximizing the number of
    DISTINCT ``qterms`` inside ``[start, start + window - 1]``, ties
    broken leftmost; None when no query term occurs. Candidate starts
    are exactly the query terms' occurrence positions — a window
    scoring more distinct terms than every occurrence-anchored window
    cannot exist, since sliding a window right to its first contained
    occurrence never drops a term. Token-domain on purpose: every
    caller (the snippet battery, HTTP /search and the CLI) reads the
    hit's text anyway to render the snippet."""
    pos: dict[str, list[int]] = {}
    for i, t in enumerate(tokens):
        if t in qterms:
            pos.setdefault(t, []).append(i)
    if not pos:
        return None
    starts = sorted({i for ps in pos.values() for i in ps})
    best_s, best_n = starts[0], -1
    for s in starts:
        n = sum(
            1 for ps in pos.values() if any(s <= p < s + window for p in ps)
        )
        if n > best_n:
            best_s, best_n = s, n
    return best_s, best_n
