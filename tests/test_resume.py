"""Checkpoint/resume: a build whose segment partitions are partially
destroyed recomputes ONLY the missing shards, byte-identical, leaving
finished partitions untouched (reference idempotency semantics —
/root/reference/db.py:114-116 — at partition granularity)."""

import glob
import json
import os
import shutil

from information_retrieval_images_ray.corpus import write_corpus
from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.sources.corpus_source import (
    assign_dense_doc_ids,
    corpus_files,
    read_code_corpus,
)
from information_retrieval_images_ray.state.manifest import Manifest


def _segment_content(index_dir, shard):
    """Canonical logical content of a shard: term -> posting bytes.

    (Distributed writes don't pin file count / row order across files,
    so "byte-identical index" means the decoded mapping, not the
    parquet container bytes.)"""
    import pyarrow.parquet as pq

    rows = {}
    for f in sorted(glob.glob(os.path.join(index_dir, "segments", f"shard={shard}", "*.parquet"))):
        for r in pq.read_table(f).to_pylist():
            rows[r["term"]] = (r["docs"], r["tfs"], r["df_local"])
    return rows


def _build(corpus_dir, index_dir):
    ds = assign_dense_doc_ids(read_code_corpus(corpus_dir), num_partitions=2)
    return build_index(
        ds, index_dir, source_files=corpus_files(corpus_dir),
        num_shards=3,
    )


def test_resume_recomputes_only_missing_shards(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    index_dir = str(tmp_path / "index")
    write_corpus(corpus_dir, 150, seed=11, rows_per_file=75)

    _build(corpus_dir, index_dir)
    before = {s: _segment_content(index_dir, s) for s in range(3)}
    man_path = os.path.join(index_dir, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    assert man["entries"]["segment:1"]["status"] == "done"

    # simulate a kill after shard 0 finished: drop shard 1's entry+files
    shutil.rmtree(os.path.join(index_dir, "segments", "shard=1"))
    m = Manifest(path=man_path)
    with open(man_path) as f:
        m.data = json.load(f)
    m.invalidate("segment:1")

    mtimes_before = {
        f: os.path.getmtime(f)
        for s in (0, 2)
        for f in glob.glob(os.path.join(index_dir, "segments", f"shard={s}", "*.parquet"))
    }
    _build(corpus_dir, index_dir)

    after = {s: _segment_content(index_dir, s) for s in range(3)}
    assert after == before  # logically identical index
    # the rebuilt shard rewrote its docmeta: every doc once, no copy
    from information_retrieval_images_ray.pipelines.serving import load_docmeta

    ids = load_docmeta(index_dir)["doc_id"].to_numpy()
    assert len(ids) == len(set(ids.tolist())) == 150
    for f, t in mtimes_before.items():
        assert os.path.getmtime(f) == t  # untouched partitions not recomputed


def test_config_change_invalidates_checkpoints(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    index_dir = str(tmp_path / "index")
    write_corpus(corpus_dir, 60, seed=3, rows_per_file=60)
    ds = assign_dense_doc_ids(read_code_corpus(corpus_dir), num_partitions=2)
    build_index(ds, index_dir, source_files=corpus_files(corpus_dir), num_shards=2)
    with open(os.path.join(index_dir, "manifest.json")) as f:
        entries_before = json.load(f)["entries"]
    assert entries_before
    # different tokenizer -> config hash changes -> checkpoints unusable
    ds2 = assign_dense_doc_ids(read_code_corpus(corpus_dir), num_partitions=2)
    build_index(
        ds2, index_dir, source_files=corpus_files(corpus_dir),
        num_shards=2, tokenizer="simple",
    )
    with open(os.path.join(index_dir, "manifest.json")) as f:
        man = json.load(f)
    assert man["config"]["tokenizer"] == "simple"
    assert man["entries"]["docterms"]["status"] == "done"


def test_dedup_build_resumes_after_docterms_crash(tmp_path):
    """A dedup=True build killed between the dedup keep-set and the
    docterms phase must, on re-run, reuse the recorded keep set and
    still produce the deduplicated corpus (not silently re-index the
    dups)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    corpus = tmp_path / "c"
    corpus.mkdir()
    texts = [f"res doc{i} words here" for i in range(20)]
    pq.write_table(
        pa.table({
            "doc_id": pa.array(list(range(20)) + list(range(50, 70)), pa.uint64()),
            "content": texts + texts,
        }),
        str(corpus / "p.parquet"),
    )
    index_dir = str(tmp_path / "idx")
    src = [str(corpus / "p.parquet")]
    stats = build_index(
        ray.data.read_parquet(str(corpus)), index_dir,
        source_files=src, num_shards=2, dedup=True,
    )
    assert stats["n_docs"] == 20
    # simulate a crash right after the dedup phase: docterms (and all
    # downstream phases) vanish, the dedup keep-set entry survives
    man_path = os.path.join(index_dir, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    keep = {k: v for k, v in man["entries"].items() if k == "dedup"}
    assert keep, "dedup phase must be recorded"
    man["entries"] = keep
    with open(man_path, "w") as f:
        json.dump(man, f)
    shutil.rmtree(os.path.join(index_dir, "docterms"))
    os.remove(os.path.join(index_dir, "stats.json"))
    stats2 = build_index(
        ray.data.read_parquet(str(corpus)), index_dir,
        source_files=src, num_shards=2, dedup=True,
    )
    assert stats2["n_docs"] == 20  # dups still skipped on resume


def test_lineage_metrics_recorded(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    index_dir = str(tmp_path / "index")
    write_corpus(corpus_dir, 60, seed=5, rows_per_file=30)
    ds = assign_dense_doc_ids(read_code_corpus(corpus_dir), num_partitions=2)
    build_index(ds, index_dir, source_files=corpus_files(corpus_dir), num_shards=2)
    with open(os.path.join(index_dir, "manifest.json")) as f:
        man = json.load(f)
    e = man["entries"]

    def parquet_bytes(sub):
        return sum(os.path.getsize(f) for f in glob.glob(
            os.path.join(index_dir, sub, "**", "*.parquet"), recursive=True))

    assert e["docterms"]["rows"] == 60
    assert e["docterms"]["bytes"] == parquet_bytes("docterms") > 0
    assert e["docterms"]["input_fingerprint"]
    assert e["docmeta"]["rows"] == 60
    assert e["docmeta"]["bytes"] == parquet_bytes("docmeta") > 0
    import pyarrow.dataset as pads

    dt = pads.dataset(os.path.join(index_dir, "docterms")).to_table(columns=["terms"])
    assert sum(e[f"segment:{s}"]["postings"] for s in range(2)) == sum(
        len(t) for t in dt["terms"].to_pylist())
    for s in range(2):
        seg = e[f"segment:{s}"]
        assert seg["terms"] > 0
        assert seg["postings"] >= seg["terms"]
        files = glob.glob(os.path.join(index_dir, "segments", f"shard={s}", "*.parquet"))
        assert seg["bytes"] == sum(os.path.getsize(f) for f in files) > 0
        assert seg["pipeline_duration_s"] >= 0
