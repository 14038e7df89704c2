"""The segment + docmeta phase: one Ray Data task per pending shard, no
exchange, one file per shard directory, and no docmeta row written
twice across an extend, its re-send and a resumed crash."""

import glob
import http.client
import json
import os

import numpy as np
import ray.data

from information_retrieval_images_ray.pipelines.build import build_index, extend_index
from information_retrieval_images_ray.pipelines.query import IndexReader
from information_retrieval_images_ray.pipelines.serving import load_docmeta
from information_retrieval_images_ray.pipelines.serving_http import IndexHTTPServer

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


def test_extend_resumes_after_shard_files_written(tmp_path):
    """Crash window: the shard job wrote its segment and docmeta files,
    but its segment:{s} and delta_docmeta entries are missing. The
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

