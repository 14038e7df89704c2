"""Positional-postings sidecar: phrase verify without corpus re-read,
proximity and span-near (window) search, the batteries checked against
brute force on raw token streams, the snippet window, sidecar build
idempotency."""

import os

import numpy as np
import pytest
import ray

from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
from information_retrieval_images_ray.pipelines import flagship
from information_retrieval_images_ray.pipelines.build import build_index
from information_retrieval_images_ray.pipelines.positions import (
    build_positions_sidecar, positions_dir, verify_phrase_positions,
    verify_proximity_positions, verify_spannear_positions)
from information_retrieval_images_ray.pipelines.query import IndexReader

DOCS = [
    # 0: phrase "red green blue" present; "red ... blue" within 2
    {"doc_id": 0, "content": "red green blue yellow", "lang": "en"},
    # 1: all three words, wrong order -> phrase no, proximity yes
    {"doc_id": 1, "content": "blue red green", "lang": "en"},
    # 2: red & blue far apart (distance 5)
    {"doc_id": 2, "content": "red a a a a blue", "lang": "en"},
    # 3: phrase at the very end; duplicated first word
    {"doc_id": 3, "content": "red red green blue", "lang": "en"},
    # 4: repeated-word phrase "echo echo"
    {"doc_id": 4, "content": "echo echo once", "lang": "en"},
    # 5: single "echo" only -> "echo echo" must NOT match
    {"doc_id": 5, "content": "echo once more", "lang": "en"},
]


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("posidx") / "i")
    ds = ray.data.from_items(DOCS)
    build_index(ds, d, tokenizer="simple", num_shards=2)
    build_positions_sidecar(ds, d)
    return d


def test_sidecar_build_idempotent(idx):
    files = sorted(
        os.path.join(dp, f)
        for dp, _, fs in os.walk(positions_dir(idx)) for f in fs
    )
    mtimes = [os.path.getmtime(f) for f in files]
    info = build_positions_sidecar(ray.data.from_items(DOCS), idx)
    assert info["rows"] > 0
    assert [os.path.getmtime(f) for f in files] == mtimes  # no rewrite


def test_phrase_verify_positions(idx):
    all_ids = np.arange(len(DOCS), dtype=np.int64)
    assert verify_phrase_positions(idx, ["red", "green", "blue"], all_ids).tolist() == [0, 3]
    assert verify_phrase_positions(idx, ["green", "blue"], all_ids).tolist() == [0, 3]
    # order matters: no doc has "blue" immediately before "green"
    assert verify_phrase_positions(idx, ["blue", "green"], all_ids).tolist() == []
    # doc 1 = "blue red green": "blue red" IS contiguous there
    assert verify_phrase_positions(idx, ["blue", "red"], all_ids).tolist() == [1]
    # repeated-word phrase needs two ADJACENT occurrences
    assert verify_phrase_positions(idx, ["echo", "echo"], all_ids).tolist() == [4]
    # candidate restriction is honored
    assert verify_phrase_positions(
        idx, ["red", "green"], np.array([3], np.int64)).tolist() == [3]
    assert verify_phrase_positions(idx, ["red", "zzz"], all_ids).tolist() == []


def test_proximity_window_edges(idx):
    all_ids = np.arange(len(DOCS), dtype=np.int64)
    # red..blue min spans: doc0=2, doc1=1, doc2=5, doc3=2
    assert verify_proximity_positions(idx, ["red", "blue"], 1, all_ids).tolist() == [1]
    assert verify_proximity_positions(idx, ["red", "blue"], 2, all_ids).tolist() == [0, 1, 3]
    assert verify_proximity_positions(idx, ["red", "blue"], 4, all_ids).tolist() == [0, 1, 3]
    assert verify_proximity_positions(idx, ["red", "blue"], 5, all_ids).tolist() == [0, 1, 2, 3]
    # 3-term cover: doc1 "blue red green" span 2
    assert verify_proximity_positions(
        idx, ["red", "green", "blue"], 2, all_ids).tolist() == [0, 1, 3]


def test_spannear_ordered_edges(idx):
    all_ids = np.arange(len(DOCS), dtype=np.int64)
    # ordered red -> blue: doc0 span 2, doc3 span 2 (greedy start red@1),
    # doc2 span 5; doc1 "blue red green" has NO blue after red
    assert verify_spannear_positions(idx, ["red", "blue"], 2, all_ids).tolist() == [0, 3]
    assert verify_spannear_positions(idx, ["red", "blue"], 5, all_ids).tolist() == [0, 2, 3]
    # reversed order is a different query: only doc1 has red after blue
    assert verify_spannear_positions(idx, ["blue", "red"], 1, all_ids).tolist() == [1]
    # 3-term ordered chain: doc0/doc3 have red < green < blue
    assert verify_spannear_positions(
        idx, ["red", "green", "blue"], 3, all_ids).tolist() == [0, 3]
    # doc1 has all three but never in this order
    assert 1 not in verify_spannear_positions(
        idx, ["red", "green", "blue"], 99, all_ids).tolist()
    # repeated term needs two strictly-increasing occurrences
    assert verify_spannear_positions(idx, ["echo", "echo"], 1, all_ids).tolist() == [4]
    # window too tight -> empty (doc2 red..blue span is 5)
    assert verify_spannear_positions(
        idx, ["red", "blue"], 4, np.array([2], np.int64)).tolist() == []
    # df-0 term -> empty
    assert verify_spannear_positions(idx, ["red", "zzz"], 9, all_ids).tolist() == []


def test_spannear_battery_verified_by_brute_force(sf_dir):
    """Every (qid, doc) the span-near battery emits — and none it
    omits — passes the definitional ordered-chain check on the raw
    token streams (all increasing-position combinations)."""
    import duckdb
    import itertools

    out = flagship.run_spannear_queries(sf_dir, k=10_000)
    rows = duckdb.sql(
        f"SELECT doc_id, text FROM '{sf_dir}/documents.parquet'"
    ).fetchall()
    toks = {d: tokenize_simple(t or "") for d, t in rows}

    def brute(terms, window):
        ordered = tokenize_simple(terms)
        hit = set()
        for d, ts in toks.items():
            pos = [
                [i for i, x in enumerate(ts) if x == t] for t in ordered
            ]
            if any(not p for p in pos):
                continue
            for c in itertools.product(*pos):
                if all(c[i] < c[i + 1] for i in range(len(c) - 1)) and \
                        c[-1] - c[0] <= window:
                    hit.add(d)
                    break
        return hit

    for q in flagship.SPANNEAR_QUERIES:
        got = set(out.loc[out["qid"] == q["qid"], "doc_id"])
        assert got == brute(q["terms"], q["window"]), q

    # orderedness is observable on the battery itself: qid 1
    # ("hash join") and qid 5 ("join hash") disagree
    h1 = set(out.loc[out["qid"] == 1, "doc_id"])
    h5 = set(out.loc[out["qid"] == 5, "doc_id"])
    assert h1 != h5


def test_phrase_battery_verified_by_brute_force(sf_dir):
    """Every (qid, doc) the phrase battery emits — and none it omits —
    holds the anchor doc's first two tokens CONTIGUOUSLY in its raw
    token stream; each qid ranks by (score desc, doc_id asc)."""
    import duckdb

    out = flagship.run_phrase_queries(sf_dir, k=10_000, n_tokens=2)
    rows = duckdb.sql(
        f"SELECT doc_id, text FROM '{sf_dir}/documents.parquet'"
    ).fetchall()
    toks = {d: tokenize_simple(t or "") for d, t in rows}

    def brute(phrase):
        n = len(phrase)
        return {
            d for d, ts in toks.items()
            if any(ts[i:i + n] == phrase for i in range(len(ts) - n + 1))
        }

    checked = 0
    for anchor in flagship.PHRASE_ANCHORS:
        phrase = toks.get(anchor, [])[:2]
        hits = out[out["qid"] == anchor]
        if not phrase:
            assert hits.empty, anchor
            continue
        assert set(hits["doc_id"]) == brute(phrase), (anchor, phrase)
        keys = list(zip(-hits["score_e6"], hits["doc_id"]))
        assert keys == sorted(keys), anchor
        checked += 1
    assert checked


def test_proximity_battery_verified_by_brute_force(sf_dir):
    """Every (qid, doc) the battery emits — and none it omits — passes
    the definitional check on the raw token streams."""
    import duckdb

    out = flagship.run_proximity_queries(sf_dir, k=10_000)
    rows = duckdb.sql(
        f"SELECT doc_id, text FROM '{sf_dir}/documents.parquet'"
    ).fetchall()
    toks = {d: tokenize_simple(t or "") for d, t in rows}

    def brute(terms, window):
        terms = sorted(set(tokenize_simple(terms)))
        hit = set()
        for d, ts in toks.items():
            pos = {t: [i for i, x in enumerate(ts) if x == t] for t in terms}
            if any(not p for p in pos.values()):
                continue
            import itertools

            best = min(
                max(c) - min(c) for c in itertools.product(*pos.values())
            )
            if best <= window:
                hit.add(d)
        return hit

    for q in flagship.PROXIMITY_QUERIES:
        got = set(out.loc[out["qid"] == q["qid"], "doc_id"])
        assert got == brute(q["terms"], q["window"]), q


def test_best_window_planted():
    """Snippet-anchor semantics: max distinct query terms in the fixed
    window, leftmost on ties, candidate starts = occurrence positions.

    doc 2 = "red a a a a blue" with window 4: start 0 covers only
    'red' (blue at pos 5 is outside [0,3]), start 5 covers only
    'blue' — tie at 1 distinct, leftmost start 0 wins. With window 6
    start 0 covers both. doc 0 = "red green blue yellow": both terms
    inside [0,3] from start 0."""
    from information_retrieval_images_ray.pipelines.positions import best_window

    toks = {d["doc_id"]: tokenize_simple(d["content"]) for d in DOCS}

    def rows(terms, window):
        got = {d: best_window(toks[d], set(terms), window) for d in (0, 2)}
        return {d: w for d, w in got.items() if w is not None}

    assert rows(["red", "blue"], 4) == {0: (0, 2), 2: (0, 1)}
    assert rows(["red", "blue"], 6) == {0: (0, 2), 2: (0, 2)}

    # a doc with no occurrence of any term has no window
    assert rows(["zzz"], 4) == {}


def test_sidecar_extends_with_index(tmp_path):
    """extend_index on an index with a sidecar appends the delta's
    positions: a phrase planted ONLY in the extended docs verifies; a
    manually-staled marker makes reads refuse instead of silently
    dropping new docs."""
    import json

    from information_retrieval_images_ray.pipelines.build import extend_index

    d = str(tmp_path / "i")
    ds = ray.data.from_items(DOCS)
    build_index(ds, d, tokenizer="simple", num_shards=2)
    build_positions_sidecar(ds, d)

    new = [{"doc_id": 10, "content": "purple orange cyan", "lang": "en"},
           {"doc_id": 11, "content": "orange purple cyan", "lang": "en"}]
    extend_index(ray.data.from_items(new), d, delta_id="d1")

    toks = tokenize_simple("purple orange")
    reader = IndexReader(d)
    ids, _ = reader.conjunctive_scores(sorted(set(toks)))
    ok = verify_phrase_positions(d, toks, ids)
    assert set(ok.tolist()) == {10}  # phrase only in doc 10 (extended)

    # idempotent: re-extending the sidecar is a no-op
    from information_retrieval_images_ray.pipelines.positions import (
        extend_positions_sidecar,
    )
    info1 = json.load(open(os.path.join(positions_dir(d), "_positions.json")))
    info2 = extend_positions_sidecar(ray.data.from_items(new), d)
    assert info2 == info1

    # staleness guard: a marker whose span lags the index refuses reads
    marker = os.path.join(positions_dir(d), "_positions.json")
    info1["doc_id_span"] = 6
    json.dump(info1, open(marker, "w"))
    with pytest.raises(RuntimeError, match="stale|covers doc span"):
        verify_phrase_positions(d, toks, ids)


def test_sidecar_follows_compaction(tmp_path):
    """compact_index carries the sidecar: tombstoned docs' positions
    are gone, survivors re-shard by the compacted bounds, and phrase
    verification over the compacted index works immediately."""
    from information_retrieval_images_ray.pipelines.build import build_index
    from information_retrieval_images_ray.pipelines.maintenance import (
        compact_index,
        delete_docs,
    )

    d = str(tmp_path / "i")
    out = str(tmp_path / "c")
    ds = ray.data.from_items(DOCS)
    build_index(ds, d, tokenizer="simple", num_shards=2)
    build_positions_sidecar(ds, d)
    delete_docs(d, [0])  # doc 0 held the "red green blue" phrase
    compact_index(d, out)

    toks = tokenize_simple("red green blue")
    reader = IndexReader(out)
    ids, _ = reader.conjunctive_scores(sorted(set(toks)))
    ok = verify_phrase_positions(out, toks, ids)
    assert set(ok.tolist()) == {3}  # doc 0 compacted away, doc 3 remains
    import glob as _glob
    import pyarrow.parquet as _pq

    rows = [
        _pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy()
        for f in _glob.glob(os.path.join(positions_dir(out), "**", "*.parquet"),
                            recursive=True)
    ]
    assert 0 not in set(np.concatenate(rows).tolist())


def test_spannear_property_vs_brute(idx):
    """Property check of the greedy ordered-chain sweep against the
    definitional all-chains test, over every ordered 2/3-term query
    x window combination drawn from the planted vocabulary (the
    sidecar is module-scoped, so this sweeps 100+ cases cheaply)."""
    import itertools

    vocab = ["red", "green", "blue", "echo", "once", "a"]
    toks = {d["doc_id"]: d["content"].split() for d in DOCS}
    all_ids = np.arange(len(DOCS), dtype=np.int64)

    def brute(ordered, window):
        hit = []
        for d, ts in toks.items():
            pos = [[i for i, x in enumerate(ts) if x == t] for t in ordered]
            if any(not p for p in pos):
                continue
            for c in itertools.product(*pos):
                if all(c[i] < c[i + 1] for i in range(len(c) - 1)) and \
                        c[-1] - c[0] <= window:
                    hit.append(d)
                    break
        return sorted(hit)

    cases = list(itertools.permutations(vocab, 2))[:20] + [
        ("red", "green", "blue"), ("blue", "green", "red"),
        ("echo", "echo"), ("red", "a"), ("a", "a"),
    ]
    for ordered in cases:
        for window in (1, 3, 6):
            got = verify_spannear_positions(
                idx, list(ordered), window, all_ids).tolist()
            assert got == brute(list(ordered), window), (ordered, window)
