"""S7 maintenance: tombstone delete, metadata update, compaction
(reference delete_record / update_description,
/root/reference/vector_db.py:54-91)."""

import glob
import os

import numpy as np
import pandas as pd
import pytest
import ray.data

from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.pipelines.maintenance import (
    compact_index,
    delete_docs,
    load_tombstones,
    update_doc_meta,
)
from information_retrieval_images_ray.pipelines.query import IndexReader, hydrate_hits

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango dup zebra"
).split()

CFG = dict(tokenizer="simple", num_shards=3)
QUERIES = ["alpha", "dup zebra", "charlie echo golf", "bravo kilo"]


def _mk_rows(n=120, seed=9):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        ln = int(rng.integers(20, 50))
        toks = [WORDS[j] for j in rng.integers(0, len(WORDS), size=ln)]
        rows.append({"doc_id": i, "content": " ".join(toks), "lang": "en"})
    return rows


@pytest.fixture(scope="module")
def rows():
    return _mk_rows()


@pytest.fixture(scope="module")
def index(tmp_path_factory, rows):
    d = str(tmp_path_factory.mktemp("mindex"))
    build_index(ray.data.from_items(rows), d, **CFG)
    return d


def _segment_content(index_dir, shard):
    import pyarrow.parquet as pq

    out = {}
    for f in sorted(
        glob.glob(os.path.join(index_dir, "segments", f"shard={shard}", "*.parquet"))
    ):
        t = pq.read_table(f).to_pandas()
        for _, r in t.iterrows():
            out[r["term"]] = (
                bytes(r["docs"]), bytes(r["tfs"]), int(r["df_local"]),
                tuple(r["block_last_doc"]), tuple(r["block_max_partial"]),
            )
    return out


def test_delete_excludes_docs_from_topk(index):
    reader = IndexReader(index)
    # pick victims straight from current top-k so the delete is observable
    base = reader.search_taat("alpha", 10)
    victims = [base[0][0], base[3][0]]
    assert delete_docs(index, victims) == 2
    after = IndexReader(index)  # reload picks up tombstones
    assert set(after.tombstones) == set(victims)
    for q in QUERIES:
        taat = after.search_taat(q, 10)
        bmw = after.search_bmw(q, 10)
        assert taat == bmw, q  # WAND still rank-identical under tombstones
        hit_ids = {d for d, _ in taat}
        assert not (hit_ids & set(victims)), q
        # survivors keep their exact pre-delete scores (stale stats)
        before = {d: s for d, s in reader.search_taat(q, 50)}
        for d, s in taat:
            assert before[d] == s


def test_delete_is_idempotent_and_accumulates(index):
    t0 = load_tombstones(index)
    delete_docs(index, t0.tolist())  # same set again -> same file
    assert np.array_equal(load_tombstones(index), t0)
    delete_docs(index, [115])
    t1 = load_tombstones(index)
    assert set(t1) == set(t0) | {115}


def test_update_doc_meta(index):
    assert update_doc_meta(index, 50, lang="fr")
    hydrated = hydrate_hits(pd.DataFrame({"doc_id": [50, 51]}), index)
    byid = hydrated.set_index("doc_id")["lang"]
    assert byid[50] == "fr" and byid[51] == "en"
    assert not update_doc_meta(index, 10_000)  # unknown doc
    with pytest.raises(KeyError):
        update_doc_meta(index, 51, nosuchcolumn="x")


def test_compaction_equals_fresh_build(index, rows, tmp_path_factory):
    """Compacted index must be logically identical — segment content,
    stats, and query results — to a from-scratch build without the
    deleted docs."""
    deleted = set(load_tombstones(index).tolist())
    assert deleted  # prior tests tombstoned some docs
    out = str(tmp_path_factory.mktemp("compacted"))
    stats = compact_index(index, out)

    fresh_dir = str(tmp_path_factory.mktemp("fresh_minus"))
    survivors = [r for r in rows if r["doc_id"] not in deleted]
    fresh_stats = build_index(ray.data.from_items(survivors), fresh_dir, **CFG)

    assert stats["n_docs"] == fresh_stats["n_docs"] == len(survivors)
    assert abs(stats["avgdl"] - fresh_stats["avgdl"]) < 1e-12
    assert stats["shard_bounds"] == fresh_stats["shard_bounds"]
    for s in range(stats["num_shards"]):
        assert _segment_content(out, s) == _segment_content(fresh_dir, s), s

    a, b = IndexReader(out), IndexReader(fresh_dir)
    assert len(a.tombstones) == 0  # materialized, not inherited
    for q in QUERIES:
        assert a.search_taat(q, 10) == b.search_taat(q, 10) == a.search_bmw(q, 10), q

    # idempotent: second call is a no-op returning the same stats
    assert compact_index(index, out)["n_docs"] == stats["n_docs"]


def test_compact_rematerializes_new_tombstones(index, tmp_path_factory):
    """Tombstones added AFTER a completed compact into the same
    out_dir must be materialized by the next compact (regression: the
    done-check ignored the tombstone set and returned stale stats)."""
    from information_retrieval_images_ray.pipelines.maintenance import (
        load_tombstones,
    )

    out = str(tmp_path_factory.mktemp("compact_twice"))
    s1 = compact_index(index, out)
    # pick a surviving doc and tombstone it
    reader = IndexReader(out)
    victim = reader.search_taat("alpha", 1)[0][0]
    delete_docs(index, [victim])
    s2 = compact_index(index, out)
    assert s2["n_docs"] == s1["n_docs"] - 1
    r2 = IndexReader(out)
    assert victim not in {d for d, _ in r2.search_taat("alpha", 50)}
    assert len(r2.tombstones) == 0


def test_merge_indexes_equals_single_build(tmp_path):
    """Two disjoint-id half indexes merged == one full build: battery
    ranks AND scores identical; a tombstone in one half is materialized
    by the merge; mismatched configs and overlapping ids refuse."""
    import ray.data

    from information_retrieval_images_ray.pipelines.build import build_index
    from information_retrieval_images_ray.pipelines.maintenance import (
        delete_docs,
        merge_indexes,
    )
    from information_retrieval_images_ray.pipelines.query import IndexReader

    rows = [{"doc_id": i, "content": f"alpha {'beta ' * (i % 5)}tail{i}",
             "lang": "en"} for i in range(40)]
    a, b, full, merged = (str(tmp_path / n) for n in "abfm")
    build_index(ray.data.from_items(rows[:20]), a, tokenizer="simple", num_shards=2)
    build_index(ray.data.from_items(rows[20:]), b, tokenizer="simple", num_shards=2)
    build_index(ray.data.from_items(rows), full, tokenizer="simple", num_shards=4)

    merge_indexes([a, b], merged)
    rm, rf = IndexReader(merged), IndexReader(full)
    for q in ("alpha beta", "beta", "tail7 alpha"):
        assert rm.search_bmw(q, 10) == rf.search_bmw(q, 10), q

    # tombstones materialize through the merge
    delete_docs(a, [0, 3])
    merged2 = str(tmp_path / "m2")
    merge_indexes([a, b], merged2)
    hits = {d for d, _ in IndexReader(merged2).search_bmw("alpha", 40)}
    assert not ({0, 3} & hits) and 1 in hits

    # config mismatch refuses
    c = str(tmp_path / "c")
    build_index(ray.data.from_items(rows[:5]), c, tokenizer="code", num_shards=1)
    with pytest.raises(ValueError, match="identical configs"):
        merge_indexes([a, c], str(tmp_path / "x1"))

    # overlapping id spaces refuse
    d = str(tmp_path / "d")
    build_index(ray.data.from_items(rows[10:25]), d, tokenizer="simple", num_shards=1)
    with pytest.raises(ValueError, match="overlap"):
        merge_indexes([a, d], str(tmp_path / "x2"))


def test_compact_resume_repairs_interrupted_sidecar(tmp_path):
    """A crash between build completion and sidecar completion leaves
    positions/ absent (or half-written, markerless) while the manifest
    says done; the next compact_index must repair the sidecar on its
    early-return path instead of leaving phrase queries broken
    (ADVICE r4, maintenance.py:159)."""
    import shutil

    from information_retrieval_images_ray.pipelines.positions import (
        build_positions_sidecar,
        positions_dir,
        verify_phrase_positions,
    )

    src = str(tmp_path / "src")
    rows = _mk_rows(80, seed=21)
    build_index(ray.data.from_items(rows), src, **CFG)
    build_positions_sidecar(ray.data.from_items(rows), src)
    delete_docs(src, [0, 1])

    out = str(tmp_path / "out")
    stats = compact_index(src, out)
    marker = os.path.join(positions_dir(out), "_positions.json")
    assert os.path.exists(marker)

    # simulate the crash window: build phases done, sidecar not
    shutil.rmtree(positions_dir(out))
    stats2 = compact_index(src, out)  # early-return path
    assert stats2["n_docs"] == stats["n_docs"]
    assert os.path.exists(marker), "resume did not repair the sidecar"
    ids = np.array([r["doc_id"] for r in rows[2:]], dtype=np.int64)
    assert len(verify_phrase_positions(out, ["dup", "zebra"], ids)) >= 0


def test_retired_config_keys_still_extend_and_compact(tmp_path, rows):
    """The five knobs of the removed hot-term salting, term-hash buckets
    and termstats table are stored in every manifest written while they
    existed. Such an index must still extend and compact, and the
    benchmark's build config, which passes two of them, must build."""
    import json

    from perfbench.run import BUILD_CONFIG

    from information_retrieval_images_ray.pipelines.build import (
        IndexBuildConfig,
        extend_index,
    )
    from information_retrieval_images_ray.state.manifest import config_hash

    cfg = {**CFG, **BUILD_CONFIG}
    old = str(tmp_path / "old")
    build_index(ray.data.from_items(rows[:80]), old, **cfg)
    man_path = os.path.join(old, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    retired = dict(hot_df_threshold=1 << 30, salt_factor=8, num_buckets=64,
                   exact_termstats=True, hot_sample_files=8)
    assert set(retired) == set(IndexBuildConfig.RETIRED)
    assert not set(retired) & set(man["config"])
    man["config"].update(retired)
    man["config_hash"] = config_hash(man["config"])
    with open(man_path, "w") as f:
        json.dump(man, f)

    extend_index(ray.data.from_items(rows[80:]), old, delta_id="d1")
    out = str(tmp_path / "compacted")
    compact_index(old, out)
    fresh = str(tmp_path / "fresh")
    build_index(ray.data.from_items(rows), fresh, **cfg)
    want = IndexReader(fresh)
    for d in (old, out):
        got = IndexReader(d)
        assert got.n_docs == len(rows)
        for q in QUERIES:
            assert got.search_taat(q, 10) == want.search_taat(q, 10), (d, q)
    with open(os.path.join(out, "manifest.json")) as f:
        assert not set(retired) & set(json.load(f)["config"])
