"""Incremental delta build (extend_index): the corpus grows between
builds, only the delta is processed, old partitions are untouched, and
query results are rank- AND score-identical to a from-scratch build of
the full corpus (reference re-run-to-extend semantics,
/root/reference/db.py:114-116, at file/shard granularity)."""

import glob
import json
import os

import numpy as np
import pytest
import ray.data

from information_retrieval_images_ray.pipelines.build import (
    build_index,
    extend_index,
    ingested_files,
)
from information_retrieval_images_ray.pipelines.query import IndexReader

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango dup zebra"
).split()

QUERIES = ["alpha", "dup zebra", "charlie echo golf", "alpha bravo", "nohit"]


def _mk_rows(lo: int, hi: int, seed: int, min_len: int, max_len: int):
    """Deterministic word-soup docs with EXPLICIT doc_ids (the
    documents-table shape, where ids come with the data)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(lo, hi):
        ln = int(rng.integers(min_len, max_len))
        toks = [WORDS[j] for j in rng.integers(0, len(WORDS), size=ln)]
        rows.append({"doc_id": i, "content": " ".join(toks)})
    return rows


@pytest.fixture(scope="module")
def corpora():
    base = _mk_rows(0, 100, seed=5, min_len=20, max_len=40)
    # delta docs are much LONGER on average -> global avgdl rises, so
    # the base shards are scored with an avgdl they were not built with
    delta = _mk_rows(100, 150, seed=6, min_len=60, max_len=120)
    return base, delta


CFG = dict(tokenizer="simple", num_shards=3)


@pytest.fixture(scope="module")
def built(tmp_path_factory, corpora):
    base, delta = corpora
    fresh_dir = str(tmp_path_factory.mktemp("fresh"))
    inc_dir = str(tmp_path_factory.mktemp("incremental"))
    build_index(ray.data.from_items(base + delta), fresh_dir, **CFG)
    build_index(ray.data.from_items(base), inc_dir, **CFG)
    mtimes = {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(inc_dir, "segments", "**", "*.parquet"),
                           recursive=True)
    }
    extend_index(ray.data.from_items(delta), inc_dir, delta_id="d1")
    return fresh_dir, inc_dir, mtimes


def test_delta_rank_and_score_identical_to_fresh(built):
    fresh_dir, inc_dir, _ = built
    fresh = IndexReader(fresh_dir)
    inc = IndexReader(inc_dir)
    assert fresh.n_docs == inc.n_docs == 150
    assert abs(fresh.avgdl - inc.avgdl) < 1e-9
    for q in QUERIES:
        f = fresh.search_taat(q, 10)
        assert f == inc.search_taat(q, 10), q


def test_delta_global_df_exact(built):
    """df(term) summed over shards equals the fresh build's (exact
    global idf across old + appended shards)."""
    fresh_dir, inc_dir, _ = built
    fresh, inc = IndexReader(fresh_dir), IndexReader(inc_dir)
    terms = sorted({t for q in QUERIES for t in q.split()})
    assert fresh.df_locals(terms) == inc.df_locals(terms)


def _regathered_segments_match(index_dir):
    """Every segment row equals encode_posting over that (shard, term)'s
    postings regathered from the docterms checkpoint (base + deltas)."""
    import pyarrow.parquet as pq

    from information_retrieval_images_ray.pipelines.build import make_shard_of
    from information_retrieval_images_ray.stages.postings import encode_posting

    with open(os.path.join(index_dir, "stats.json")) as fh:
        stats = json.load(fh)
    shard_of = make_shard_of(stats["shard_bounds"])
    postings: dict = {}
    for f in glob.glob(os.path.join(index_dir, "docterms", "**", "*.parquet"), recursive=True):
        t = pq.read_table(f, columns=["doc_id", "terms", "tfs"])
        ids = t["doc_id"].to_numpy()
        for d, s, terms, tfs in zip(ids, shard_of(ids), t["terms"].to_pylist(),
                                    t["tfs"].to_pylist()):
            for term, tf in zip(terms, tfs):
                postings.setdefault((int(s), term), []).append((int(d), tf))
    seen = set()
    for f in glob.glob(os.path.join(index_dir, "segments", "**", "*.parquet"), recursive=True):
        shard = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        for row in pq.read_table(f).to_pylist():
            key = (shard, row["term"])
            assert key not in seen, key
            seen.add(key)
            ids, tfs = (np.array(c) for c in zip(*postings[key]))
            ref = encode_posting(ids.astype(np.uint64), tfs, stats["block_size"])
            assert set(row) == {"term", "df_local", "docs", "tfs"}, key
            for col in ("df_local", "docs", "tfs"):
                assert row[col] == ref[col], (key, col)
    assert seen == set(postings)


def test_segments_equal_per_term_encode_after_build_and_extend(built):
    fresh_dir, inc_dir, _ = built
    _regathered_segments_match(fresh_dir)
    _regathered_segments_match(inc_dir)  # base shards + the extend's shards


def test_delta_leaves_old_partitions_untouched(built):
    _, inc_dir, mtimes = built
    for f, t in mtimes.items():
        assert os.path.getmtime(f) == t, f
    # appended shards exist beyond the original 3
    with open(os.path.join(inc_dir, "stats.json")) as fh:
        stats = json.load(fh)
    assert stats["num_shards"] > 3
    assert stats["shard_bounds"][3] == 100  # first delta shard starts at old span


def test_delta_manifest_records_rows_and_bytes(built):
    """The extend's docterms and docmeta entries record the rows and
    Parquet bytes it wrote: its own delta dir, its own new shards."""
    _, inc_dir, _ = built
    with open(os.path.join(inc_dir, "manifest.json")) as fh:
        e = json.load(fh)["entries"]

    def parquet_bytes(*dirs):
        return sum(os.path.getsize(f) for d in dirs for f in glob.glob(
            os.path.join(inc_dir, d, "*.parquet")))

    new_shards = e["delta:d1"]["new_shards"]
    assert new_shards
    assert e["delta_docterms:d1"]["rows"] == 50
    assert e["delta_docterms:d1"]["bytes"] == parquet_bytes("docterms/delta=d1") > 0
    assert e["delta_docmeta:d1"]["rows"] == 50
    assert e["delta_docmeta:d1"]["bytes"] == parquet_bytes(
        *(f"docmeta/shard={s}" for s in new_shards)) > 0


def test_delta_is_idempotent(built, corpora):
    _, inc_dir, _ = built
    _, delta = corpora
    before = {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(inc_dir, "**", "*.parquet"), recursive=True)
    }
    extend_index(ray.data.from_items(delta), inc_dir, delta_id="d1")  # re-run
    after = {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(inc_dir, "**", "*.parquet"), recursive=True)
    }
    assert before == after


def test_delta_rejects_overlapping_ids(built, corpora):
    _, inc_dir, _ = built
    base, _ = corpora
    with pytest.raises(ValueError, match="doc_ids must start at or above"):
        extend_index(ray.data.from_items(base[:5]), inc_dir, delta_id="bad")


def test_ingested_files_recorded(tmp_path, corpora):
    base, delta = corpora
    import pyarrow as pa
    import pyarrow.parquet as pq

    f1 = str(tmp_path / "part1.parquet")
    f2 = str(tmp_path / "part2.parquet")
    pq.write_table(pa.Table.from_pylist(base), f1)
    pq.write_table(pa.Table.from_pylist(delta), f2)
    idx = str(tmp_path / "idx")
    build_index(
        ray.data.read_parquet(f1), idx, source_files=[f1], **CFG
    )
    assert set(ingested_files(idx)) == {f1}
    extend_index(ray.data.read_parquet(f2), idx, delta_files=[f2])
    assert set(ingested_files(idx)) == {f1, f2}


def test_extend_resumes_after_simulated_crashes(tmp_path, corpora):
    """Two crash windows: (a) killed after delta_stats was recorded in
    the manifest but before stats.json was rewritten, (b) killed after
    segments but before docmeta/finalize. Both must resume to an index
    whose results equal an uninterrupted extend."""
    import shutil

    base, delta = corpora
    ref_dir = str(tmp_path / "ref")
    build_index(ray.data.from_items(base), ref_dir, **CFG)
    extend_index(ray.data.from_items(delta), ref_dir, delta_id="d1")
    ref = IndexReader(ref_dir)

    crash_dir = str(tmp_path / "crash")
    build_index(ray.data.from_items(base), crash_dir, **CFG)
    pre_stats = open(os.path.join(crash_dir, "stats.json")).read()
    extend_index(ray.data.from_items(delta), crash_dir, delta_id="d1")

    man_path = os.path.join(crash_dir, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    # simulate window (a): only delta_stats survived; stats.json still
    # pre-delta (the new ordering writes it AFTER the manifest entry)
    for k in list(man["entries"]):
        if k.startswith(("delta_docmeta", "delta:")) or (
            k.startswith("segment:") and man["entries"][k].get("delta") == "d1"
        ):
            del man["entries"][k]
    with open(man_path, "w") as f:
        json.dump(man, f)
    with open(os.path.join(crash_dir, "stats.json"), "w") as f:
        f.write(pre_stats)
    with open(os.path.join(crash_dir, "stats.json")) as f:
        assert json.load(f)["num_shards"] == 3  # pre-delta state restored
    for d in glob.glob(os.path.join(crash_dir, "segments", "shard=*")):
        if int(d.rsplit("=", 1)[1]) >= 3:
            import shutil as _sh

            _sh.rmtree(d)

    extend_index(ray.data.from_items(delta), crash_dir, delta_id="d1")
    got = IndexReader(crash_dir)
    assert got.n_docs == ref.n_docs and abs(got.avgdl - ref.avgdl) < 1e-9
    for q in QUERIES:
        assert got.search_taat(q, 10) == ref.search_taat(q, 10), q


def test_ingested_files_excludes_incomplete_delta(tmp_path, corpora):
    """A delta that fails before completion must NOT appear ingested —
    otherwise the CLI would never retry it."""
    base, _ = corpora
    import pyarrow as pa
    import pyarrow.parquet as pq

    f1 = str(tmp_path / "p1.parquet")
    bad = str(tmp_path / "bad.parquet")
    pq.write_table(pa.Table.from_pylist(base), f1)
    pq.write_table(pa.Table.from_pylist(base[:3]), bad)  # overlapping ids
    idx = str(tmp_path / "idx")
    build_index(ray.data.read_parquet(f1), idx, source_files=[f1], **CFG)
    with pytest.raises(ValueError):
        extend_index(ray.data.read_parquet(bad), idx, delta_files=[bad])
    assert os.path.abspath(bad) not in ingested_files(idx)


def test_two_chained_deltas_equal_fresh_build(tmp_path, corpora):
    """extend -> extend again: the second delta appends more shards,
    and the final index still matches a from-scratch build of all three
    parts."""
    base, delta = corpora
    delta2 = _mk_rows(150, 180, seed=7, min_len=10, max_len=25)  # avgdl drops

    fresh_dir = str(tmp_path / "fresh_all")
    build_index(ray.data.from_items(base + delta + delta2), fresh_dir, **CFG)
    inc_dir = str(tmp_path / "chained")
    build_index(ray.data.from_items(base), inc_dir, **CFG)
    extend_index(ray.data.from_items(delta), inc_dir, delta_id="d1")
    extend_index(ray.data.from_items(delta2), inc_dir, delta_id="d2")

    fresh, inc = IndexReader(fresh_dir), IndexReader(inc_dir)
    assert fresh.n_docs == inc.n_docs == 180
    assert abs(fresh.avgdl - inc.avgdl) < 1e-9
    for q in QUERIES:
        f = fresh.search_taat(q, 10)
        assert f == inc.search_taat(q, 10), q


def test_extend_skip_existing_content(tmp_path, corpora):
    """Content-level dedup on extend (reference md5-presence skip,
    db.py:114-116): delta docs whose sha256 already exists in the
    index — or earlier in the delta — are dropped; only genuinely new
    content is indexed."""
    base, delta = corpora
    # delta: 20 genuinely new docs + 10 re-sent copies of base content
    # (new ids) + an internal duplicate pair
    resent = [
        {"doc_id": 200 + i, "content": base[i]["content"]} for i in range(10)
    ]
    internal_dup = [{"doc_id": 250, "content": delta[0]["content"]}]
    mixed = delta[:20] + resent + internal_dup

    idx = str(tmp_path / "idx")
    build_index(ray.data.from_items(base), idx, **CFG)
    stats = extend_index(
        ray.data.from_items(mixed), idx, delta_id="dd", skip_existing_content=True
    )
    assert stats["n_docs"] == 120  # 100 base + 20 new; 11 skipped

    # results equal a fresh build of base + the 20 unique-new docs
    fresh = str(tmp_path / "fresh")
    build_index(ray.data.from_items(base + delta[:20]), fresh, **CFG)
    a, b = IndexReader(idx), IndexReader(fresh)
    assert abs(a.avgdl - b.avgdl) < 1e-9
    for q in QUERIES:
        assert a.search_taat(q, 10) == b.search_taat(q, 10), q

    # an all-duplicate delta is a complete no-op
    stats2 = extend_index(
        ray.data.from_items(
            [{"doc_id": 300 + i, "content": base[i]["content"]} for i in range(5)]
        ),
        idx, delta_id="alldup", skip_existing_content=True,
    )
    assert stats2["n_docs"] == 120
    assert IndexReader(idx).n_docs == 120
