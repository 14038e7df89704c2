"""The build's exchanges, Ray Data executions and the segment + docmeta
phase: one exchange (the id-ranking sort) from an id-less corpus, none
from a source that brings its own doc_id, one Ray Data execution per
index write for its rows, one plain Ray task per pending shard, one
file per shard directory, and no docmeta row written twice across an
extend, its re-send and a resumed crash."""

import glob
import http.client
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data
from ray.data._internal.execution.streaming_executor import StreamingExecutor
from ray.data.grouped_data import GroupedData

from information_retrieval_images_ray.corpus import write_corpus
from information_retrieval_images_ray.pipelines.build import build_index, extend_index
from information_retrieval_images_ray.pipelines.query import IndexReader
from information_retrieval_images_ray.pipelines.serving import load_docmeta
from information_retrieval_images_ray.pipelines.serving_http import IndexHTTPServer
from information_retrieval_images_ray.sources.corpus_source import (
    assign_dense_doc_ids,
    read_code_corpus,
)

WORDS = "alpha bravo charlie delta echo foxtrot golf hotel dup zebra".split()
QUERIES = ["alpha", "dup zebra", "charlie echo golf", "nohit"]
CFG = dict(tokenizer="simple", num_shards=3)


def _rows(lo, hi, seed):
    rng = np.random.default_rng(seed)
    return [{"doc_id": i, "content": " ".join(
        WORDS[j] for j in rng.integers(0, len(WORDS), int(rng.integers(5, 40))))}
        for i in range(lo, hi)]


def _post(port, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", path, json.dumps(payload),
                     {"Content-Type": "application/json"})
        r = conn.getresponse()
        return r.status, json.loads(r.read())
    finally:
        conn.close()


def _files(idx, sub):
    return glob.glob(os.path.join(idx, sub, "*.parquet"))


def _assert_docmeta_exact(idx):
    """docmeta holds each indexed doc exactly once."""
    with open(os.path.join(idx, "stats.json")) as f:
        n_docs = json.load(f)["n_docs"]
    ids = load_docmeta(idx)["doc_id"].to_numpy()
    assert len(ids) == len(np.unique(ids)) == n_docs


def _build_and_extend(idx):
    build_index(ray.data.from_items(_rows(0, 90, 1)), idx, **CFG)
    extend_index(ray.data.from_items(_rows(90, 130, 2)), idx, delta_id="d1")
    return IndexReader(idx)


def test_build_and_extend_run_no_exchange(tmp_path, monkeypatch):
    """With every all-to-all Dataset operator patched to raise, a build
    from a source that already carries doc_id and the extend after it
    complete, and search exactly like an unpatched build."""
    want = _build_and_extend(str(tmp_path / "ref"))

    def exchange(self, *a, **kw):
        raise AssertionError("the build ran an exchange")

    for op in ("groupby", "aggregate", "sort", "repartition"):
        monkeypatch.setattr(ray.data.Dataset, op, exchange)
    got = _build_and_extend(str(tmp_path / "patched"))
    assert got.stats == want.stats
    for q in QUERIES:
        assert got.search_taat(q, 10) == want.search_taat(q, 10), q


def test_ranked_build_runs_one_exchange(tmp_path, monkeypatch):
    """assign_dense_doc_ids -> build_index over an id-less corpus makes
    exactly one groupby (the rank sort: map_groups sorts through
    Dataset.sort), no aggregate and no repartition, and searches like
    an unpatched build."""
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, 120, seed=3, rows_per_file=40)

    def build(idx):
        build_index(assign_dense_doc_ids(read_code_corpus(corpus)), idx, num_shards=3)
        return IndexReader(idx)

    want = build(str(tmp_path / "ref"))

    def exchange(self, *a, **kw):
        raise AssertionError("the build ran an aggregate or a repartition")

    groupbys = []
    groupby = ray.data.Dataset.groupby

    def counted(self, *a, **kw):
        groupbys.append(a)
        return groupby(self, *a, **kw)

    monkeypatch.setattr(GroupedData, "aggregate", exchange)
    monkeypatch.setattr(ray.data.Dataset, "aggregate", exchange)
    monkeypatch.setattr(ray.data.Dataset, "repartition", exchange)
    monkeypatch.setattr(ray.data.Dataset, "groupby", counted)
    got = build(str(tmp_path / "patched"))
    assert len(groupbys) == 1
    assert got.stats == want.stats
    for q in ["getUserName", "merge sort", "parse json config", "nohit"]:
        assert got.search_taat(q, 10) == want.search_taat(q, 10), q


def test_one_ray_data_execution_per_index_write(tmp_path, monkeypatch):
    """Counting ``StreamingExecutor.execute``: ``build_index`` over a
    source that carries doc_id, ``extend_index`` over a ``from_items``
    delta and an HTTP /extend make one Ray Data execution each (the
    tokenize; the shards are plain Ray tasks), and
    ``assign_dense_doc_ids`` -> ``build_index`` makes three (the key
    sample, the partition counts and the rank shuffle, which feeds the
    tokenize). Each index searches exactly like an unpatched build."""
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, 120, seed=3, rows_per_file=40)
    want = _build_and_extend(str(tmp_path / "ref"))
    ranked_want = str(tmp_path / "ranked_ref")
    build_index(assign_dense_doc_ids(read_code_corpus(corpus)), ranked_want, num_shards=3)

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **kw):
        runs.append(self)
        return execute(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)

    def executions(write):
        runs.clear()
        write()
        return len(runs)

    idx = str(tmp_path / "idx")
    assert executions(lambda: build_index(
        ray.data.from_items(_rows(0, 90, 1)), idx, **CFG)) == 1
    assert executions(lambda: extend_index(
        ray.data.from_items(_rows(90, 130, 2)), idx, delta_id="d1")) == 1
    got = IndexReader(idx)
    assert got.stats == want.stats
    for q in QUERIES:
        assert got.search_taat(q, 10) == want.search_taat(q, 10), q

    ranked = str(tmp_path / "ranked")
    assert executions(lambda: build_index(
        assign_dense_doc_ids(read_code_corpus(corpus)), ranked, num_shards=3)) == 3
    got, ranked_want = IndexReader(ranked), IndexReader(ranked_want)
    assert got.stats == ranked_want.stats
    for q in ["getUserName", "merge sort", "parse json config", "nohit"]:
        assert got.search_taat(q, 10) == ranked_want.search_taat(q, 10), q

    srv = IndexHTTPServer(idx, num_actors=1, port=0).start()
    try:
        extend = {"docs": [{"content": f"fresh{i} alpha"} for i in range(5)]}
        answer = []
        assert executions(lambda: answer.append(_post(srv.port, "/extend", extend))) == 1
        status, out = answer[0]
        assert status == 200 and out["added"] == 5
        status, hits = _post(srv.port, "/search", {"query": "fresh3", "limit": 5})
        assert status == 200 and [h["doc_id"] for h in hits] == [133]
    finally:
        srv.close()


@pytest.mark.parametrize("num_partitions", [1, 3, None, "n_rows+5"])
def test_doc_ids_are_brute_force_rank(tmp_path, num_partitions):
    """doc_id = start_id + the row's index under Python ``sorted`` by
    (repo, path, commit, content), nulls as "", whatever the partition
    count: repeated keys with different content (NUL and non-ASCII
    included), a null commit and exact duplicate rows."""
    keys = [("r1", "a.py", "c1"), ("r1", "a.py", None), ("r0", "\u00e9.py", "c2"),
            ("r0", "z.py", "c2"), ("r2", "\uffff.py", "c"), ("r2", "\U0001f600.py", "c"),
            ("r1", "a.py", "")]
    contents = ["x", "x\x00", "x\x00y", "", "na\u00efve \u2603", "\u65e5\u672c", "a b"]
    rows = [{"repo": r, "path": p, "commit": c, "lang": "py",
             "content": contents[(i * 3 + j) % len(contents)]}
            for i, (r, p, c) in enumerate(keys) for j in range(3)]
    rows += rows[:4]  # exact duplicates
    d = tmp_path / "corpus"
    d.mkdir()
    table = pa.Table.from_pylist(rows)
    pq.write_table(table.slice(0, 12), str(d / "a.parquet"))
    pq.write_table(table.slice(12), str(d / "b.parquet"))
    if num_partitions == "n_rows+5":
        num_partitions = len(rows) + 5

    def key(r):
        return (r["repo"] or "", r["path"] or "", r["commit"] or "", r["content"])

    got = assign_dense_doc_ids(read_code_corpus(str(d)), num_partitions=num_partitions,
                               start_id=17).take_all()
    got.sort(key=lambda r: r["doc_id"])
    assert [r["doc_id"] for r in got] == list(range(17, 17 + len(rows)))
    assert [key(r) for r in got] == sorted(key(r) for r in rows)


def test_http_extend_writes_one_file_per_shard(tmp_path):
    """An /extend of 40 docs is one docterms file, and one segment and
    one docmeta file in each new shard; neither it nor its re-send
    writes a docmeta row twice."""
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_items(_rows(0, 60, 3)), idx, tokenizer="simple",
                num_shards=2)
    srv = IndexHTTPServer(idx, num_actors=1, port=0).start()
    payload = {"docs": [{"content": r["content"] + f" fresh{r['doc_id']}"}
                        for r in _rows(0, 40, 4)]}
    try:
        status, out = _post(srv.port, "/extend", payload)
        assert status == 200 and out["added"] == 40
        _assert_docmeta_exact(idx)
        status, again = _post(srv.port, "/extend", payload)
        assert status == 200 and again["added"] == 0
        _assert_docmeta_exact(idx)
    finally:
        srv.close()
    with open(os.path.join(idx, "manifest.json")) as f:
        entries = json.load(f)["entries"]
    (delta,) = [k for k in entries if k.startswith("delta:")]
    delta_id = delta.split(":", 1)[1]
    assert len(_files(idx, f"docterms/delta={delta_id}")) == 1
    new_shards = entries[delta]["new_shards"]
    assert new_shards == [2, 3]
    for s in new_shards:
        assert len(_files(idx, f"segments/shard={s}")) == 1
        assert len(_files(idx, f"docmeta/shard={s}")) == 1


def test_failed_shard_task_is_raised_after_its_siblings_finish(tmp_path):
    """When one shard task fails, ``build_index`` raises only after every
    other pending shard's task has finished, so no task still writes
    into a shard directory that a resumed build would clean; that
    resumed build, once the cause is gone, writes the same segment and
    docmeta rows as an uninterrupted one."""
    # from_items makes many small blocks, so every shard task reads
    # dozens of docterms files
    want = str(tmp_path / "ref")
    build_index(ray.data.from_items(_rows(0, 1500, 1)), want, **CFG)
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_items(_rows(0, 1500, 1)), idx, **CFG)
    man_path = os.path.join(idx, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    for k in ["docmeta"] + [f"segment:{s}" for s in range(3)]:
        del man["entries"][k]
    with open(man_path, "w") as f:
        json.dump(man, f)
    # shard 0's first docterms file: its footer holds a doc_id range in
    # the shard, its data pages are garbage, so that task fails at once
    bad = os.path.join(idx, "docterms", "0-bad.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([5], pa.uint64())}), bad,
                   compression="none")
    with open(bad, "r+b") as f:
        f.seek(4)
        f.write(b"\xff" * 16)
    with pytest.raises(ray.exceptions.RayTaskError):
        build_index(None, idx, **CFG)
    for s in (1, 2):
        for sub in ("segments", "docmeta"):
            (f,) = _files(idx, f"{sub}/shard={s}")
            assert pq.read_table(f).equals(pq.read_table(
                os.path.join(want, sub, f"shard={s}", "build.parquet")))
    os.remove(bad)
    build_index(None, idx, **CFG)
    for s in range(3):
        for sub in ("segments", "docmeta"):
            (f,) = _files(idx, f"{sub}/shard={s}")
            assert pq.read_table(f).equals(pq.read_table(
                os.path.join(want, sub, f"shard={s}", "build.parquet")))


def test_extend_resumes_after_shard_files_written(tmp_path):
    """Crash window: the shard tasks wrote their segment and docmeta
    files, but the segment:{s} and delta_docmeta entries are missing. The
    resumed extend rewrites those shards without duplicating a row and
    equals an uninterrupted one."""
    want = _build_and_extend(str(tmp_path / "ref"))
    idx = str(tmp_path / "crash")
    _build_and_extend(idx)
    man_path = os.path.join(idx, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    new_shards = man["entries"]["delta:d1"]["new_shards"]
    for k in ["delta:d1", "delta_docmeta:d1"] + [f"segment:{s}" for s in new_shards]:
        del man["entries"][k]
    with open(man_path, "w") as f:
        json.dump(man, f)

    extend_index(ray.data.from_items(_rows(90, 130, 2)), idx, delta_id="d1")
    _assert_docmeta_exact(idx)
    for s in new_shards:
        assert len(_files(idx, f"segments/shard={s}")) == 1
        assert len(_files(idx, f"docmeta/shard={s}")) == 1
    got = IndexReader(idx)
    assert got.stats == want.stats
    for q in QUERIES:
        assert got.search_taat(q, 10) == want.search_taat(q, 10), q

