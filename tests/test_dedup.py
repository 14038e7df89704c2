"""Dedup family semantics on planted near-duplicates."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
from information_retrieval_images_ray.pipelines import dedup

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform victor"
).split()


def _mk_docs():
    """40 base docs + planted exact dups + near dups (1-2 word edits)."""
    rng = np.random.default_rng(123)
    rows = []
    for i in range(40):
        toks = [WORDS[j] for j in rng.integers(0, len(WORDS), size=60)]
        rows.append({"doc_id": i, "text": " ".join(toks)})
    rows.append({"doc_id": 100, "text": rows[3]["text"]})            # exact dup of 3
    near = rows[7]["text"].split()
    near[5] = "zzz"
    rows.append({"doc_id": 101, "text": " ".join(near)})             # near dup of 7
    near2 = rows[11]["text"].split()
    near2[0], near2[30] = "yyy", "xxx"
    rows.append({"doc_id": 102, "text": " ".join(near2)})            # near dup of 11
    return rows


@pytest.fixture(scope="module")
def docs():
    return _mk_docs()


@pytest.fixture(scope="module")
def ds(docs):
    return ray.data.from_items(docs)


def _exact_jaccard(a: str, b: str, n=3) -> float:
    sa = dedup._shingles(tokenize_simple(a), n)
    sb = dedup._shingles(tokenize_simple(b), n)
    return len(sa & sb) / len(sa | sb)


def test_exact_dedup_groups(ds, docs):
    out = dedup.exact_dedup_groups(ds).to_pandas()
    assert len(out) == len(docs) - 1  # one exact dup collapses
    dup = out[out["dup_count"] > 1]
    assert len(dup) == 1
    assert int(dup["keep_doc_id"].iloc[0]) == 3  # deterministic first


def test_exact_dedup_rows(ds, docs):
    out = dedup.exact_dedup(ds).to_pandas()
    assert len(out) == len(docs) - 1
    assert 100 not in set(out["doc_id"])
    assert 3 in set(out["doc_id"])


def test_minhash_finds_planted_near_dups(ds, docs):
    out = dedup.minhash_near_dups(ds, threshold=0.5, num_perm=64, bands=16)
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (3, 100) in pairs   # exact dup -> jaccard 1
    assert (7, 101) in pairs   # near dup
    assert (11, 102) in pairs
    # signature-estimated jaccard: unbiased, std <= 1/(2*sqrt(64)) =
    # 0.0625 — every reported estimate must be close to exact and >=
    # the threshold (the in-group filter)
    bytext = {d["doc_id"]: d["text"] for d in docs}
    for _, r in out.iterrows():
        est = r["jaccard_e6"] / 1e6
        want = _exact_jaccard(bytext[r["doc_a"]], bytext[r["doc_b"]])
        assert abs(est - want) < 0.25  # 4 sigma
        assert est >= 0.5
    # the exact-dup pair estimates exactly 1.0 (identical signatures)
    byp = dict(zip(zip(out["doc_a"], out["doc_b"]), out["jaccard_e6"]))
    assert byp[(3, 100)] == 1_000_000


def test_simhash_finds_planted_near_dups(ds):
    out = dedup.simhash_near_dups(ds, max_hamming=3)
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (3, 100) in pairs  # identical text -> hamming 0
    ham = dict(zip(zip(out["doc_a"], out["doc_b"]), out["hamming"]))
    assert ham[(3, 100)] == 0
    assert (out["hamming"] <= 3).all()


def test_ngram_jaccard_pairs_match_bruteforce(ds, docs):
    out = dedup.ngram_jaccard_pairs(ds, n=3, threshold=0.4)
    bytext = {d["doc_id"]: d["text"] for d in docs}
    # brute force over all pairs
    ids = sorted(bytext)
    want = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            j = _exact_jaccard(bytext[a], bytext[b])
            if j >= 0.4:
                want[(a, b)] = j
    got = {(r["doc_a"], r["doc_b"]): r["jaccard_e6"] / 1e6 for _, r in out.iterrows()}
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) < 2e-6


def test_frequent_shingle_cutoff():
    """max_group drops pairs from hot shingles (the skew guard)."""
    rows = [{"doc_id": i, "text": "same same same same same"} for i in range(10)]
    ds = ray.data.from_items(rows)
    full = dedup.ngram_jaccard_pairs(ds, n=3)
    capped = dedup.ngram_jaccard_pairs(ds, n=3, max_group=5)
    assert len(full) == 45  # all pairs (identical docs)
    assert len(capped) == 0


def test_minhash_simhash_hot_band_cap(caplog):
    """A duplicate-heavy corpus puts every copy in the same band
    buckets; with max_group set the bucket is dropped (logged sentinel)
    instead of emitting O(N^2) pairs, and the job still completes."""
    import logging

    rows = [
        {"doc_id": i, "text": "same words repeated here again and again ok"}
        for i in range(12)  # 2x max_group identical docs
    ]
    ds = ray.data.from_items(rows)
    caplog.set_level(logging.WARNING, logger=dedup.__name__)
    capped = dedup.minhash_near_dups(ds, threshold=0.5, max_group=6)
    assert len(capped) == 0
    assert "minhash_near_dups" in caplog.text and "hot band buckets" in caplog.text
    caplog.clear()
    capped = dedup.simhash_near_dups(ds, max_hamming=3, max_group=6)
    assert len(capped) == 0
    assert "simhash_near_dups" in caplog.text and "hot band buckets" in caplog.text
    # uncapped: all 66 identical pairs surface
    full = dedup.minhash_near_dups(ds, threshold=0.5, max_group=None)
    assert len(full) == 66
    full = dedup.simhash_near_dups(ds, max_hamming=3, max_group=None)
    assert len(full) == 66


def test_minhash_band_exchange_payload_trimmed(ds, capsys):
    """The band exchange ships THIN rows (band_id, band_hash, doc_id);
    signatures travel exactly once per verify side through the keyed
    union join — not replicated x16 into the band shuffle. Measured as
    actual Arrow table bytes on this corpus: the old signature-carrying
    band layout is >= 8x larger than thin-bands + 2x the packed
    signature table the verify exchanges move."""
    import pyarrow as pa

    sigs = dedup.minhash_signatures(ds, 64, 3, "simple").to_pandas()
    bands, rpb = 16, 4
    bid, bh, did, fat_sig = [], [], [], []
    for doc, sig in zip(sigs["doc_id"], sigs["signature"]):
        for b in range(bands):
            chunk = tuple(int(v) for v in sig[b * rpb : (b + 1) * rpb])
            bid.append(b)
            bh.append(dedup.stable_u64(repr(chunk)))
            did.append(int(doc))
            fat_sig.append(list(sig))
    thin = pa.table({
        "band_id": pa.array(bid, pa.int32()),
        "band_hash": pa.array(bh, pa.uint64()),
        "doc_id": pa.array(did, pa.int64()),
    })
    fat = thin.append_column("signature", pa.array(fat_sig, pa.list_(pa.uint64())))
    packed = pa.table({
        "doc_id": pa.array(sigs["doc_id"], pa.int64()),
        "sig": pa.array(
            [np.asarray(s, np.uint64).tobytes() for s in sigs["signature"]],
            pa.binary(),
        ),
    })
    band_ratio = fat.nbytes / thin.nbytes
    new_total = thin.nbytes + 2 * packed.nbytes  # band stage + both verify sides
    total_ratio = fat.nbytes / new_total
    print(f"[band-exchange bytes] band stage: old={fat.nbytes} thin={thin.nbytes} "
          f"({band_ratio:.1f}x); all exchanges incl. the 2 verify joins: "
          f"new={new_total} ({total_ratio:.1f}x smaller)")
    assert band_ratio >= 10  # the band shuffle itself shrinks ~an order
    assert total_ratio >= 4  # and total moved bytes still win clearly


def test_winnow_detects_planted_overlap(ds, docs):
    """Winnowing guarantee: any shared token run of length >= w+k-1
    (= 8 here) produces at least one shared fingerprint — the planted
    exact/near dups must surface as overlap pairs."""
    out = dedup.winnow_overlap_pairs(ds, k=5, w=4, min_common=2)
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (3, 100) in pairs   # exact dup: every fingerprint shared
    assert (7, 101) in pairs   # 1-word edit: long shared runs remain
    # exact dup pair shares its ENTIRE fingerprint set
    summary = dedup.winnow_doc_summary(ds, k=5, w=4).set_index("doc_id")
    byp = dict(zip(zip(out["doc_a"], out["doc_b"]), out["common"]))
    assert byp[(3, 100)] == summary.loc[3, "n_fp"] == summary.loc[100, "n_fp"]


def test_winnow_set_matches_bruteforce():
    """_winnow_set equals the definitional set of window minima."""
    toks = [f"t{i%9}" for i in range(40)]
    k, w = 5, 4
    m = len(toks) - k + 1
    hs = [dedup._md5_60(" ".join(toks[i:i+k])) for i in range(m)]
    want = {min(hs[j:j+w]) for j in range(m - w + 1)}
    got = set(dedup._winnow_set(toks, k, w).tolist())
    assert got == want
    # short doc: single min-of-all fingerprint
    assert set(dedup._winnow_set(toks[:6], k, w).tolist()) == {min(
        dedup._md5_60(" ".join(toks[i:i+k])) for i in range(2))}
    assert len(dedup._winnow_set(["a"], k, w)) == 0


def test_dup_clusters_transitive():
    """A~B and B~C overlap pairwise but A and C share NOTHING — the
    component must still merge all three (the reason clustering, not
    pair-keeping, drives retirement). An unrelated pair forms its own
    cluster; singletons are not emitted."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import dup_clusters

    mk = lambda *ws: " ".join(ws)
    A = mk(*"a1 a2 a3 a4 a5 m1 m2 m3 m4 m5".split())       # tail == B head
    B = mk(*"m1 m2 m3 m4 m5 n1 n2 n3 n4 n5".split())       # tail == C head
    C = mk(*"n1 n2 n3 n4 n5 c1 c2 c3 c4 c5".split())       # no 5-gram with A
    D = mk(*"d1 d2 d3 d4 d5 d6 x9 y9 z9 w9".split())
    E = mk(*"d1 d2 d3 d4 d5 d6 p1 p2 p3 p4".split())       # pairs with D
    S = mk(*"s1 s2 s3 s4 s5 s6 s7 s8 s9 s0".split())       # singleton
    docs = ray.data.from_items([
        {"doc_id": i, "text": t} for i, t in enumerate([A, B, C, D, E, S])
    ])
    out = dup_clusters(docs, n=5)
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3}


def test_decontaminate_planted():
    """A train doc sharing 3-grams with a test doc is flagged with the
    exact shared-shingle count; val docs and clean train docs never
    appear (split = md5(doc_id) % 100, same as split_summary)."""
    from information_retrieval_images_ray.functions.hashing import md5_u64

    def bucket(i):
        return md5_u64(str(i)) % 100

    train_id = next(i for i in range(1000) if bucket(i) < 80)
    test_id = next(i for i in range(1000) if bucket(i) >= 90)
    val_id = next(i for i in range(1000) if 80 <= bucket(i) < 90)
    clean_id = next(i for i in range(1000) if bucket(i) < 80 and i != train_id)
    shared = "alpha bravo charlie delta echo foxtrot golf hotel"
    rows = [
        {"doc_id": train_id, "text": shared},
        {"doc_id": test_id, "text": shared + " india juliet"},
        {"doc_id": val_id, "text": shared},  # val cannot leak -> never flagged
        {"doc_id": clean_id, "text": "kilo lima mike november oscar papa"},
    ]
    out = dedup.decontaminate(ray.data.from_items(rows), n=3)
    assert out["doc_id"].tolist() == [train_id]
    assert out["n_shared"].tolist() == [6]  # all 6 distinct 3-grams collide


def test_dup_components_matches_union_find():
    """The distributed large-star/small-star components must equal the
    driver union-find on the same pair graph — chain A~B~C merges
    transitively, D~E is its own component, singleton omitted."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import (
        dup_clusters,
        dup_components,
    )

    mk = lambda *ws: " ".join(ws)
    A = mk(*"a1 a2 a3 a4 a5 m1 m2 m3 m4 m5".split())
    B = mk(*"m1 m2 m3 m4 m5 n1 n2 n3 n4 n5".split())
    C = mk(*"n1 n2 n3 n4 n5 c1 c2 c3 c4 c5".split())
    D = mk(*"d1 d2 d3 d4 d5 d6 x9 y9 z9 w9".split())
    E = mk(*"d1 d2 d3 d4 d5 d6 p1 p2 p3 p4".split())
    S = mk(*"s1 s2 s3 s4 s5 s6 s7 s8 s9 s0".split())
    docs = ray.data.from_items([
        {"doc_id": i, "text": t} for i, t in enumerate([A, B, C, D, E, S])
    ])
    got = dup_components(docs, n=5)
    want = dup_clusters(docs, n=5)
    assert got.values.tolist() == want.values.tolist()
    assert dict(zip(got["doc_id"], got["cluster_id"])) == {
        0: 0, 1: 0, 2: 0, 3: 3, 4: 3
    }


def test_dup_components_empty_pairs():
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import dup_components

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "alpha beta gamma delta eps"},
        {"doc_id": 1, "text": "one two three four five"},
    ])
    out = dup_components(docs, n=5)
    assert out.empty and list(out.columns) == ["doc_id", "cluster_id"]


def test_dup_triangles_clique_vs_chain():
    """Three docs sharing one 5-gram form a triangle (each member
    counted once); a 2-doc pair and a chain A~B~C without A~C add no
    triangles."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import dup_triangles

    blk = "t1 t2 t3 t4 t5"
    docs = ray.data.from_items([
        {"doc_id": 0, "text": blk + " a1 a2 a3 a4 a5"},
        {"doc_id": 1, "text": blk + " b1 b2 b3 b4 b5"},
        {"doc_id": 2, "text": blk + " c1 c2 c3 c4 c5"},
        # chain: 3~4 and 4~5 but 3 !~ 5
        {"doc_id": 3, "text": "d1 d2 d3 d4 d5 m1 m2 m3 m4 m5"},
        {"doc_id": 4, "text": "m1 m2 m3 m4 m5 n1 n2 n3 n4 n5"},
        {"doc_id": 5, "text": "n1 n2 n3 n4 n5 e1 e2 e3 e4 e5"},
    ])
    out = dup_triangles(docs, n=5)
    assert dict(zip(out["doc_id"], out["n_triangles"])) == {0: 1, 1: 1, 2: 1}


def test_ngram_containment_asymmetric():
    """A short doc fully contained in a long one scores containment
    1.0 even though Jaccard is low — the asymmetric measure's point."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import (
        ngram_containment_pairs,
        ngram_jaccard_pairs,
    )

    short = "q1 q2 q3 q4 q5 q6"                      # 2 distinct 5-grams
    longd = short + " z1 z2 z3 z4 z5 z6 z7 z8 z9 z10 z11 z12"
    docs = ray.data.from_items([
        {"doc_id": 0, "text": short}, {"doc_id": 1, "text": longd},
    ])
    cont = ngram_containment_pairs(docs, n=5)
    assert cont.iloc[0].tolist() == [0, 1, 2, 1_000_000]
    jac = ngram_jaccard_pairs(docs, n=5)
    assert int(jac.iloc[0]["jaccard_e6"]) < 1_000_000


def test_clustering_coefficients_clique_vs_hub():
    """A triangle's members score 1.0; chain middles (degree 2, no
    triangle) score 0; degree-1 endpoints score 0 by convention."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import (
        dup_clustering_coefficients,
    )

    blk = "t1 t2 t3 t4 t5"
    docs = ray.data.from_items([
        {"doc_id": 0, "text": blk + " a1 a2 a3 a4 a5"},
        {"doc_id": 1, "text": blk + " b1 b2 b3 b4 b5"},
        {"doc_id": 2, "text": blk + " c1 c2 c3 c4 c5"},
        {"doc_id": 3, "text": "d1 d2 d3 d4 d5 m1 m2 m3 m4 m5"},
        {"doc_id": 4, "text": "m1 m2 m3 m4 m5 n1 n2 n3 n4 n5"},
        {"doc_id": 5, "text": "n1 n2 n3 n4 n5 e1 e2 e3 e4 e5"},
    ])
    out = dup_clustering_coefficients(docs, n=5)
    got = {int(r.doc_id): (int(r.degree), int(r.n_triangles),
                           int(r.clustering_e6))
           for r in out.itertuples()}
    assert got == {
        0: (2, 1, 1_000_000), 1: (2, 1, 1_000_000), 2: (2, 1, 1_000_000),
        3: (1, 0, 0), 4: (2, 0, 0), 5: (1, 0, 0),
    }


def test_dup_components_long_chain_multi_round():
    """A 12-doc chain (diameter 11) forces several large/small-star
    rounds before stars form — the convergence loop, not just the
    1-round fixture, must match union-find."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import (
        dup_clusters,
        dup_components,
    )

    words = [f"w{i}a w{i}b w{i}c w{i}d w{i}e" for i in range(13)]
    docs = ray.data.from_items([
        {"doc_id": i, "text": words[i] + " " + words[i + 1]} for i in range(12)
    ])
    got = dup_components(docs, n=5)
    assert got.values.tolist() == dup_clusters(docs, n=5).values.tolist()
    assert set(got["cluster_id"]) == {0} and len(got) == 12


def test_dup_pagerank_star_matches_integer_reference():
    """Hub-and-spokes: the hub shares a distinct 5-gram block with each
    leaf, leaves share nothing with each other. The distributed rounds
    must equal a driver-side replay of the SAME integer recurrence
    exactly (no tolerance — that is the operator's determinism
    contract), and the hub must outrank every leaf."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import dup_pagerank

    blocks = [f"b{i}1 b{i}2 b{i}3 b{i}4 b{i}5" for i in range(4)]
    docs = ray.data.from_items([
        {"doc_id": 0, "text": " ".join(blocks)},             # hub
        {"doc_id": 1, "text": blocks[1] + " l1a l1b l1c l1d l1e"},
        {"doc_id": 2, "text": blocks[2] + " l2a l2b l2c l2d l2e"},
        {"doc_id": 3, "text": blocks[3] + " l3a l3b l3c l3d l3e"},
    ])
    iters, scale, dn, dd = 6, 10**12, 85, 100
    out = dup_pagerank(docs, n=5, iters=iters)

    edges = [(0, 1), (0, 2), (0, 3)]
    nbrs = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    n_nodes = len(nbrs)
    init = scale // n_nodes
    base = ((dd - dn) * init) // dd
    pr = {u: init for u in nbrs}
    for _ in range(iters):
        new = {u: base for u in nbrs}
        for u, vs in nbrs.items():
            c = (dn * pr[u]) // (dd * len(vs))
            for v in vs:
                new[v] += c
        pr = new
    got = dict(zip(out["doc_id"], out["pagerank_pp12"]))
    assert got == pr
    assert got[0] > got[1] == got[2] == got[3]
    assert dict(zip(out["doc_id"], out["degree"])) == {0: 3, 1: 1, 2: 1, 3: 1}


def test_dup_pagerank_symmetric_pair_and_empty():
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import dup_pagerank

    blk = "p1 p2 p3 p4 p5"
    docs = ray.data.from_items([
        {"doc_id": 7, "text": blk + " qa qb qc qd qe"},
        {"doc_id": 9, "text": blk + " ra rb rc rd re"},
    ])
    out = dup_pagerank(docs, n=5, iters=4)
    # two symmetric deg-1 nodes: equal rank, ~all mass retained
    assert list(out["doc_id"]) == [7, 9]
    a, b = out["pagerank_pp12"]
    assert a == b and abs(int(a) - 10**12 // 2) < 100

    lonely = ray.data.from_items([
        {"doc_id": 0, "text": "aa bb cc dd ee"},
        {"doc_id": 1, "text": "ff gg hh ii jj"},
    ])
    assert dup_pagerank(lonely, n=5).empty


def test_span_coverage_shared_run_and_interval_union():
    """A and B share a 10-token run -> 3 duplicated 8-windows whose
    UNION covers exactly 10 positions (not 24); C is unique -> 0."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import dup_span_coverage

    run = "c1 c2 c3 c4 c5 c6 c7 c8 c9 c10"          # 10 shared tokens
    docs = ray.data.from_items([
        {"doc_id": 0, "text": run + " ua ub uc ud ue uf"},   # 16 toks
        {"doc_id": 1, "text": "va vb vc vd ve vf " + run},   # 16 toks
        {"doc_id": 2, "text": " ".join(f"w{i}" for i in range(16))},
    ])
    out = dup_span_coverage(docs, window=8)
    rows = {int(r.doc_id): r for r in out.itertuples()}
    for d in (0, 1):
        assert rows[d].n_tokens == 16
        assert rows[d].dup_windows == 3          # starts 0,1,2 of the run
        assert rows[d].covered_tokens == 10      # interval union, not 3*8
        assert rows[d].coverage_e6 == 625_000
    assert rows[2].dup_windows == 0 and rows[2].covered_tokens == 0
    assert rows[2].coverage_e6 == 0


def test_span_coverage_exact_dups_and_short_docs():
    """Exact dups cover fully (1e6); a within-doc-only repeat is NOT
    cross-doc duplicated; docs shorter than the window emit a row with
    zero windows."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import dup_span_coverage

    text = " ".join(f"t{i}" for i in range(12))
    rep8 = " ".join(f"r{i}" for i in range(8))
    docs = ray.data.from_items([
        {"doc_id": 0, "text": text},
        {"doc_id": 1, "text": text},                          # exact dup
        {"doc_id": 2, "text": rep8 + " zz " + rep8},          # self-repeat only
        {"doc_id": 3, "text": "s1 s2 s3"},                    # < window
    ])
    out = dup_span_coverage(docs, window=8)
    rows = {int(r.doc_id): r for r in out.itertuples()}
    assert rows[0].coverage_e6 == rows[1].coverage_e6 == 1_000_000
    assert rows[2].dup_windows == 0 and rows[2].coverage_e6 == 0
    assert rows[3].n_tokens == 3 and rows[3].dup_windows == 0
    assert len(out) == 4


def test_trim_dup_spans_removes_shared_run_only():
    """The shared 10-token run is excised from both carriers; the
    unique remainders survive in order, attested by md5; an untouched
    doc attests its full normalized stream."""
    import hashlib

    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import trim_dup_spans

    run = "c1 c2 c3 c4 c5 c6 c7 c8 c9 c10"
    uniq2 = " ".join(f"w{i}" for i in range(16))
    docs = ray.data.from_items([
        {"doc_id": 0, "text": run + " ua ub uc ud ue uf"},
        {"doc_id": 1, "text": "va vb vc vd ve vf " + run},
        {"doc_id": 2, "text": uniq2},
    ])
    out = trim_dup_spans(docs, window=8)
    rows = {int(r.doc_id): r for r in out.itertuples()}
    md5 = lambda s: hashlib.md5(s.encode()).hexdigest()
    assert rows[0].kept_tokens == 6 and rows[0].removed_tokens == 10
    assert rows[0].cleaned_md5 == md5("ua ub uc ud ue uf")
    assert rows[1].cleaned_md5 == md5("va vb vc vd ve vf")
    assert rows[2].removed_tokens == 0 and rows[2].cleaned_md5 == md5(uniq2)


def test_trim_dup_spans_full_removal_and_short_doc():
    import hashlib

    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import trim_dup_spans

    text = " ".join(f"t{i}" for i in range(12))
    docs = ray.data.from_items([
        {"doc_id": 0, "text": text},
        {"doc_id": 1, "text": text},          # exact dup: fully excised
        {"doc_id": 2, "text": "s1 s2 s3"},    # < window: untouched
    ])
    out = trim_dup_spans(docs, window=8)
    rows = {int(r.doc_id): r for r in out.itertuples()}
    md5 = lambda s: hashlib.md5(s.encode()).hexdigest()
    assert rows[0].kept_tokens == 0 and rows[0].cleaned_md5 == md5("")
    assert rows[1].cleaned_md5 == md5("")
    assert rows[2].kept_tokens == 3 and rows[2].cleaned_md5 == md5("s1 s2 s3")


def test_minhash_store_gate_lifecycle(tmp_path):
    """build -> check: a new doc near-duplicating a STORED doc is
    flagged with its match; a within-batch-only dup pair is NOT
    (cross-side contract); extend -> re-check: a doc duplicating the
    newly admitted one is now flagged against it."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import (
        build_minhash_store,
        check_against_store,
        extend_minhash_store,
    )

    rng = np.random.default_rng(7)
    base = [" ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 40))
            for _ in range(10)]
    store_docs = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(base)])
    sd = str(tmp_path / "store")
    meta = build_minhash_store(store_docs, sd)
    assert meta["n_docs"] == 10

    twin = base[3].split()
    twin[2] = "zzz"                                   # near-dup of stored 3
    batch_dup_a = " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 40))
    new_docs = ray.data.from_items([
        {"doc_id": 100, "text": " ".join(twin)},
        {"doc_id": 101, "text": batch_dup_a},         # within-batch pair...
        {"doc_id": 102, "text": batch_dup_a},         # ...must NOT be flagged
    ])
    out = check_against_store(new_docs, sd, threshold=0.5)
    got = {(int(r.doc_id), int(r.matched_doc)) for r in out.itertuples()}
    assert (100, 3) in got
    assert not any(d in (101, 102) for d, _ in got)
    assert all(m < 100 for _, m in got)               # matches are store-side

    # admit the batch, then a doc duplicating new doc 101 is caught
    meta2 = extend_minhash_store(new_docs, sd)
    assert meta2["n_docs"] == 13
    probe = ray.data.from_items([{"doc_id": 200, "text": batch_dup_a}])
    out2 = check_against_store(probe, sd, threshold=0.5)
    got2 = {(int(r.doc_id), int(r.matched_doc)) for r in out2.itertuples()}
    assert (200, 101) in got2 and (200, 102) in got2


def test_minhash_gate_matches_in_session_pairs(tmp_path):
    """The gate's verdicts on (new x stored) must agree with the
    in-session minhash_near_dups run over the union corpus, restricted
    to cross-side pairs — one truth, two topologies."""
    import ray.data

    from information_retrieval_images_ray.pipelines.dedup import (
        build_minhash_store,
        check_against_store,
        minhash_near_dups,
    )

    rng = np.random.default_rng(11)
    texts = [" ".join(WORDS[j] for j in rng.integers(0, len(WORDS), 40))
             for _ in range(8)]
    near = texts[2].split(); near[5] = "qqq"
    near2 = texts[6].split(); near2[0] = "rrr"
    store_rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    new_rows = [{"doc_id": 50, "text": " ".join(near)},
                {"doc_id": 51, "text": " ".join(near2)},
                {"doc_id": 52, "text": "one two three four five six seven"}]
    sd = str(tmp_path / "store")
    build_minhash_store(ray.data.from_items(store_rows), sd)
    gate = check_against_store(
        ray.data.from_items(new_rows), sd, threshold=0.5)

    union = minhash_near_dups(
        ray.data.from_items(store_rows + new_rows), threshold=0.5)
    cross = {(int(b), int(a), int(j)) for a, b, j in
             zip(union["doc_a"], union["doc_b"], union["jaccard_e6"])
             if a < 50 <= b}
    got = {(int(r.doc_id), int(r.matched_doc), int(r.jaccard_e6))
           for r in gate.itertuples()}
    assert got == cross


def test_neardup_survivors_keep_list():
    """Every doc appears exactly once; cluster members carry the
    component min-id label with only the canonical doc kept;
    singletons keep themselves."""
    import ray

    from information_retrieval_images_ray.pipelines.dedup import (
        dup_clusters, neardup_survivors,
    )

    text = "alpha beta gamma delta epsilon zeta eta theta"
    rows = [
        {"doc_id": 0, "text": text},                    # cluster {0,1,2}
        {"doc_id": 1, "text": text},
        {"doc_id": 2, "text": text + " iota"},
        {"doc_id": 3, "text": "one two three four five six"},   # singleton
        {"doc_id": 4, "text": "seven eight nine ten eleven twelve"},
    ]
    ds = ray.data.from_items(rows)
    out = neardup_survivors(ds, n=5).to_pandas().sort_values("doc_id").set_index("doc_id")
    assert len(out) == 5
    cl = dup_clusters(ds, n=5)
    assert set(cl["doc_id"]) == {0, 1, 2}
    assert list(out.loc[[0, 1, 2], "cluster_id"]) == [0, 0, 0]
    assert list(out.loc[[0, 1, 2], "keep"]) == [1, 0, 0]
    for d in (3, 4):
        assert out.loc[d, "cluster_id"] == d and out.loc[d, "keep"] == 1
    # the kept set is exactly one doc per component + all singletons
    assert int(out["keep"].sum()) == 3


def test_dup_cluster_size_hist():
    """One 3-doc family + two singletons -> rows (1, 2, 2), (3, 1, 3);
    n_docs column sums to the corpus size."""
    import ray

    from information_retrieval_images_ray.pipelines.dedup import (
        dup_cluster_size_hist,
    )

    text = "alpha beta gamma delta epsilon zeta eta theta"
    rows = [
        {"doc_id": 0, "text": text},
        {"doc_id": 1, "text": text},
        {"doc_id": 2, "text": text + " iota"},
        {"doc_id": 3, "text": "one two three four five six"},
        {"doc_id": 4, "text": "seven eight nine ten eleven twelve"},
    ]
    out = dup_cluster_size_hist(ray.data.from_items(rows), n=5)
    got = {int(r.cluster_size): (int(r.n_clusters), int(r.n_docs))
           for r in out.itertuples()}
    assert got == {1: (2, 2), 3: (1, 3)}
    assert int(out["n_docs"].sum()) == 5
