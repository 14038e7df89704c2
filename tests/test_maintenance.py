"""S7 maintenance: tombstone delete, metadata update, compaction
(reference delete_record / update_description,
/root/reference/vector_db.py:54-91)."""

import glob
import json
import os

import numpy as np
import pandas as pd
import pytest
import ray.data

from information_retrieval_images_ray.pipelines.build import build_index, make_shard_of
from information_retrieval_images_ray.pipelines.maintenance import (
    compact_index,
    delete_docs,
    load_tombstones,
    update_doc_meta,
)
from information_retrieval_images_ray.pipelines.query import IndexReader, hydrate_hits
from information_retrieval_images_ray.pipelines.serving import load_docmeta

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
        for r in pq.read_table(f).to_pylist():
            out[r["term"]] = (r["docs"], r["tfs"], r["df_local"])
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


def test_update_doc_meta(index, tmp_path):
    """An edit is hydrated at once, and survives compaction and a
    rebuild of the doc's shard (both re-derive docmeta from docterms)."""
    tomb = set(load_tombstones(index).tolist())
    doc, other = [d for d in range(50, 60) if d not in tomb][:2]
    assert update_doc_meta(index, doc, lang="fr")
    hydrated = hydrate_hits(pd.DataFrame({"doc_id": [doc, other]}), index)
    byid = hydrated.set_index("doc_id")["lang"]
    assert byid[doc] == "fr" and byid[other] == "en"
    assert not update_doc_meta(index, 10_000)  # unknown doc
    with pytest.raises(KeyError):
        update_doc_meta(index, other, nosuchcolumn="x")

    def lang_of(index_dir):
        return load_docmeta(index_dir).to_pandas().set_index("doc_id")["lang"]

    out = str(tmp_path / "compacted")
    compact_index(index, out)
    assert lang_of(out)[doc] == "fr" and lang_of(out)[other] == "en"

    with open(os.path.join(index, "stats.json")) as f:
        shard = int(make_shard_of(json.load(f)["shard_bounds"])(np.array([doc]))[0])
    man_path = os.path.join(index, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    del man["entries"][f"segment:{shard}"]
    with open(man_path, "w") as f:
        json.dump(man, f)
    build_index(None, index, **CFG)
    assert lang_of(index)[doc] == "fr" and lang_of(index)[other] == "en"


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
        assert a.search_taat(q, 10) == b.search_taat(q, 10), q

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
        assert rm.search_taat(q, 10) == rf.search_taat(q, 10), q

    # tombstones materialize through the merge
    delete_docs(a, [0, 3])
    merged2 = str(tmp_path / "m2")
    merge_indexes([a, b], merged2)
    hits = {d for d, _ in IndexReader(merged2).search_taat("alpha", 40)}
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


# segment file columns (the shard is the hive partition) now, and while
# block-max WAND existed
NARROW = frozenset({"term", "df_local", "docs", "tfs"})
WIDE = NARROW | {"block_last_doc", "block_doc_off", "block_tf_off",
                 "block_max_partial", "max_partial"}


def _add_retired_columns(index_dir):
    """Rewrite a fresh index into the layout every index had while
    block-max WAND served plain queries: five more segment columns (the
    per-block skip list and byte offsets, per-block and per-term score
    bounds) and each shard's encode avgdl in stats.json."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from information_retrieval_images_ray.functions.codec import delta_encode, encode_varbyte
    from information_retrieval_images_ray.pipelines.query import decode_all_blocks

    stats_path = os.path.join(index_dir, "stats.json")
    with open(stats_path) as f:
        stats = json.load(f)
    bs, avgdl, k1, b = stats["block_size"], stats["avgdl"], stats["k1"], stats["b"]
    doc_len = IndexReader(index_dir).doc_len
    files = glob.glob(os.path.join(index_dir, "segments", "shard=*", "*.parquet"))
    assert files
    for path in files:
        t = pq.read_table(path)
        cols = {n: [] for n in ("block_last_doc", "block_doc_off", "block_tf_off",
                                "block_max_partial")}
        for row in t.to_pylist():
            ids, tfs = decode_all_blocks(row, bs)
            tf = tfs.astype(np.float64)
            part = tf * (k1 + 1) / (tf + k1 * (1 - b + b * doc_len[ids.astype(np.int64)] / avgdl))
            starts = range(0, len(ids), bs)
            cols["block_last_doc"].append(
                [int(ids[min(s + bs, len(ids)) - 1]) for s in starts])
            cols["block_doc_off"].append(np.cumsum(
                [0] + [len(encode_varbyte(delta_encode(ids[s:s + bs]))) for s in starts]).tolist())
            cols["block_tf_off"].append(np.cumsum(
                [0] + [len(encode_varbyte(tfs[s:s + bs])) for s in starts]).tolist())
            cols["block_max_partial"].append([float(part[s:s + bs].max()) for s in starts])
        for name, vals in cols.items():
            elem = pa.float32() if name == "block_max_partial" else pa.uint64()
            t = t.append_column(name, pa.array(vals, pa.list_(elem)))
        t = t.append_column("max_partial", pa.array(
            [max(v) for v in cols["block_max_partial"]], pa.float32()))
        pq.write_table(t, path, compression="zstd")
    stats["encode_avgdl"] = {str(s): avgdl for s in range(stats["num_shards"])}
    with open(stats_path, "w") as f:
        json.dump(stats, f)


def _segment_columns(index_dir, shard):
    import pyarrow.parquet as pq

    return {frozenset(pq.read_schema(f).names) for f in glob.glob(
        os.path.join(index_dir, "segments", f"shard={shard}", "*.parquet"))}


def test_wand_era_index_searches_extends_compacts_and_merges(tmp_path, rows):
    """An index written while block-max WAND existed carries five more
    segment columns and an ``encode_avgdl`` map in stats.json. It must
    search bitwise like the same index without them, and after an
    extend (old shards keep the wide layout, new shards get the narrow
    one) it must compact and merge to the same results as fresh builds."""
    import shutil

    from information_retrieval_images_ray.pipelines.build import extend_index
    from information_retrieval_images_ray.pipelines.maintenance import merge_indexes

    cur, old = str(tmp_path / "cur"), str(tmp_path / "old")
    build_index(ray.data.from_items(rows[:80]), cur, **CFG)
    shutil.copytree(cur, old)
    _add_retired_columns(old)
    assert _segment_columns(cur, 0) == {NARROW} and _segment_columns(old, 0) == {WIDE}

    want, got = IndexReader(cur), IndexReader(old)
    for q in QUERIES:
        hits = want.search_taat(q, 10)
        assert got.search_taat(q, 10) == hits, q
        ids = [d for d, _ in hits[:3]]
        assert got.explain(q, ids) == want.explain(q, ids), q
    plans = [want.compile("boolean", "", {"must": "alpha", "should": "dup zebra"}),
             want.compile("prefix", "ch"), want.compile("collapse", "alpha")]
    assert got.topk(plans, 10) == want.topk(plans, 10)

    extend_index(ray.data.from_items(rows[80:100]), old, delta_id="d1")
    assert [_segment_columns(old, s) for s in range(4)] == [{WIDE}] * 3 + [{NARROW}]

    compacted, rest, merged = (str(tmp_path / n) for n in ("compacted", "rest", "merged"))
    fresh, fresh_all = str(tmp_path / "fresh"), str(tmp_path / "fresh_all")
    compact_index(old, compacted)
    build_index(ray.data.from_items(rows[100:]), rest, **CFG)
    merge_indexes([old, rest], merged)
    build_index(ray.data.from_items(rows[:100]), fresh, **CFG)
    build_index(ray.data.from_items(rows), fresh_all, **CFG)
    for d, ref in ((old, fresh), (compacted, fresh), (merged, fresh_all)):
        a, b = IndexReader(d), IndexReader(ref)
        assert a.n_docs == b.n_docs, d
        for q in QUERIES:
            assert a.search_taat(q, 10) == b.search_taat(q, 10), (d, q)
    for s in range(CFG["num_shards"]):
        assert _segment_content(compacted, s) == _segment_content(fresh, s), s


def test_postings_decoded_at_load_equal_on_disk_rows(tmp_path, rows):
    """A reader loads a 3-shard build as one segment. Each of its
    terms' postings, decoded at load, equals the concatenation of the
    term's on-disk rows over the segment's shards (``decode_all_blocks``
    over their bytes), in shard order, doc ids ascending; its df is
    their ``df_local`` sum; and ``partial`` is bitwise the partial of
    those arrays: for an index with multi-block terms (block_size 4)
    and an empty shard, and for its WAND-era copy."""
    import shutil

    import pyarrow.parquet as pq

    from information_retrieval_images_ray.pipelines.query import decode_all_blocks

    # shard 1 (doc ids 40..79 of 120) holds no token
    docs = [dict(r, content="") if 40 <= r["doc_id"] < 80 else r for r in rows]
    cur, old = str(tmp_path / "cur"), str(tmp_path / "old")
    build_index(ray.data.from_items(docs), cur, block_size=4, **CFG)
    shutil.copytree(cur, old)
    _add_retired_columns(old)
    for d in (cur, old):
        reader = IndexReader(d)
        k1, b, avgdl = reader.params.k1, reader.params.b, reader.avgdl
        (sg,) = reader.segments
        assert sg.shards == [0, 1, 2] and (sg.lo, sg.hi) == (0, 120), d
        on_disk: dict[str, list[dict]] = {}
        for s in sg.shards:
            files = glob.glob(os.path.join(d, "segments", f"shard={s}", "*.parquet"))
            for f in files:
                for row in pq.read_table(f, columns=["term", "df_local", "docs", "tfs"]).to_pylist():
                    on_disk.setdefault(row["term"], []).append(row)
        assert sg.terms.arrow.to_pylist() == sorted(on_disk), d
        assert not any(40 <= i < 80 for i in sg._ids), d
        multi_block = multi_shard = 0
        for i, term in enumerate(sorted(on_disk)):
            parts = [decode_all_blocks(row, reader.block_size) for row in on_disk[term]]
            want_ids = np.concatenate([p[0] for p in parts]).astype(np.int64)
            want_tfs = np.concatenate([p[1] for p in parts])
            ids, tfs = sg.postings(i)
            assert ids.dtype == np.int64 and np.array_equal(ids, want_ids), (d, term)
            assert np.all(np.diff(ids) > 0), (d, term)
            assert np.array_equal(tfs, want_tfs), (d, term)
            assert sg.df_at(i) == sum(row["df_local"] for row in on_disk[term]), (d, term)
            multi_block += any(len(p[0]) > reader.block_size for p in parts)
            multi_shard += len(parts) > 1
            tf = want_tfs.astype(np.float64)
            dl = reader.doc_len[want_ids]
            want = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
            got_ids, part = sg.partial(i, reader.doc_len, k1, b, avgdl)
            if got_ids is None:  # dense form over the segment span
                assert np.array_equal(part[want_ids - sg.lo], want)
                assert np.count_nonzero(part) == len(want_ids)
            else:
                assert np.array_equal(got_ids, want_ids)
                assert part.tobytes() == want.tobytes(), (d, term)
        assert multi_block and multi_shard, d
