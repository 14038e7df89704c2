"""Similarity-search semantics: brute-force exactness, IVF recall,
embedding near-dup, persisted IVF and text embedding."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from information_retrieval_images_ray.pipelines import similarity


@pytest.fixture(scope="module")
def emb_rows():
    rng = np.random.default_rng(42)
    # 8 clusters of 25 vectors each, dim 16 -> clear neighborhood structure
    rows = []
    vid = 0
    for c in range(8):
        center = rng.normal(size=16)
        center /= np.linalg.norm(center)
        for _ in range(25):
            v = center + 0.25 * rng.normal(size=16)
            rows.append({"vec_id": vid, "embedding": v.astype(np.float32).tolist(), "label": c})
            vid += 1
    return rows


@pytest.fixture(scope="module")
def emb_ds(emb_rows):
    return ray.data.from_items(emb_rows)


def _brute(emb_rows, q, k):
    m = np.stack([np.asarray(r["embedding"], np.float64) for r in emb_rows])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    sims = m @ qn
    ids = np.array([r["vec_id"] for r in emb_rows])
    order = np.lexsort((ids, -sims))[:k]
    return [int(ids[i]) for i in order]


def test_knn_bruteforce_exact(emb_ds, emb_rows):
    q = np.asarray(emb_rows[0]["embedding"], np.float64)
    out = similarity.knn_bruteforce(emb_ds, q[None, :], k=10)
    got = list(out.sort_values("rank")["vec_id"])
    assert got == _brute(emb_rows, q, 10)
    assert out["sim_e6"].iloc[0] == 1_000_000  # self-match first


def test_ivf_recall(emb_ds, emb_rows):
    qs = np.stack([np.asarray(emb_rows[i]["embedding"], np.float64) for i in (0, 50, 120)])
    exact = similarity.knn_bruteforce(emb_ds, qs, k=10)
    approx = similarity.ivf_knn(emb_ds, qs, k=10, nlist=8, nprobe=3)
    recalls = []
    for qi in range(3):
        e = set(exact[exact["qid"] == qi]["vec_id"])
        a = set(approx[approx["qid"] == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.8  # clustered data, 3/8 probes


def test_embedding_near_dups_blocked(emb_ds):
    out = similarity.embedding_near_dups(emb_ds, threshold=0.9, block_col="label")
    assert len(out) > 0
    assert (out["sim_e6"] >= 900_000 - 1).all()
    assert (out["doc_a"] < out["doc_b"]).all()


def test_embedding_near_dups_auto_blocking(emb_ds, emb_rows):
    """block_col=None: blocks come from a fitted IVF quantizer instead
    of a label column. On the clearly-clustered fixture every reported
    pair must clear the threshold, and within-cluster near-identical
    pairs must be found."""
    out = similarity.embedding_near_dups(emb_ds, threshold=0.9, block_col=None)
    assert len(out) > 0
    assert (out["sim_e6"] >= 900_000 - 1).all()
    # verify against exact pairwise cosine: no false positives
    import numpy as np

    m = np.stack([np.asarray(r["embedding"], np.float64) for r in emb_rows])
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    for _, r in out.iterrows():
        assert sims[int(r["doc_a"]), int(r["doc_b"])] >= 0.9 - 1e-9


def test_persisted_ivf_matches_inmemory(tmp_path, emb_ds, emb_rows):
    queries = np.stack(
        [np.asarray(emb_rows[i]["embedding"], np.float64) for i in (0, 30, 60)]
    )
    """Persisted IVF index (build once, search from disk) returns the
    same results as the in-memory ivf_knn at the same nlist/nprobe —
    and exactly equals brute force when every cluster is probed."""
    from information_retrieval_images_ray.pipelines.similarity import (
        IVFIndexReader,
        build_ivf_index,
        ivf_knn,
        knn_bruteforce,
    )

    idx = str(tmp_path / "ivf")
    meta = build_ivf_index(emb_ds, idx, nlist=8)
    assert meta["nlist"] == 8
    reader = IVFIndexReader(idx)
    got = reader.search(queries, k=10, nprobe=8)
    want = knn_bruteforce(emb_ds, queries, k=10)
    assert got.equals(want.astype("int64"))
    inmem = ivf_knn(emb_ds, queries, k=10, nlist=8, nprobe=8)
    assert got.equals(inmem.astype("int64"))
    # idempotent rebuild: marker short-circuits
    assert build_ivf_index(emb_ds, idx, nlist=8) == meta
    reader.close()


def test_persisted_ivf_build_crash_safe(tmp_path, emb_ds, emb_rows):
    """A crashed build (marker-less partial cluster files) must not
    leak duplicate vectors into the rebuilt index: the rebuild replaces
    the partial dir atomically instead of write_parquet appending next
    to it. Top-k after the rebuild equals brute force exactly (a
    duplicated vector would surface as a repeated vec_id)."""
    import os

    from information_retrieval_images_ray.pipelines.similarity import (
        IVFIndexReader,
        build_ivf_index,
        knn_bruteforce,
    )

    idx = str(tmp_path / "ivf_crash")
    # simulate the crash: a full build with the marker removed
    build_ivf_index(emb_ds, idx, nlist=8)
    os.remove(os.path.join(idx, "ivf.json"))
    # rebuild over the partial leftovers
    meta = build_ivf_index(emb_ds, idx, nlist=8)
    assert meta["nlist"] == 8 and os.path.exists(os.path.join(idx, "ivf.json"))
    queries = np.stack(
        [np.asarray(emb_rows[i]["embedding"], np.float64) for i in (0, 30)]
    )
    reader = IVFIndexReader(idx)
    got = reader.search(queries, k=10, nprobe=8)
    assert got.equals(knn_bruteforce(emb_ds, queries, k=10).astype("int64"))
    assert got.groupby("qid")["vec_id"].nunique().eq(10).all()  # no dup rows
    reader.close()


def test_persisted_ivf_filtered(tmp_path, emb_ds, emb_rows):
    """Pre-filtered ANN: an equality predicate on a metadata column is
    applied inside the cluster actors BEFORE scoring. With every
    cluster probed the result must exactly equal brute force over the
    filtered subset, and every returned id must satisfy the filter."""
    from information_retrieval_images_ray.pipelines.similarity import (
        IVFIndexReader,
        build_ivf_index,
    )

    queries = np.stack(
        [np.asarray(emb_rows[i]["embedding"], np.float64) for i in (0, 30, 60)]
    )
    idx = str(tmp_path / "ivf_filtered")
    build_ivf_index(emb_ds, idx, nlist=8)
    reader = IVFIndexReader(idx, num_actors=3)
    got = reader.search(queries, k=10, nprobe=8, filter_col="label", filter_value=2)
    label2 = {r["vec_id"] for r in emb_rows if r["label"] == 2}
    assert set(got["vec_id"]) <= label2
    assert got.groupby("qid")["rank"].count().eq(10).all()
    # brute force restricted to the filtered subset
    sub = [r for r in emb_rows if r["label"] == 2]
    for qi in range(3):
        want = _brute(sub, queries[qi], 10)
        assert list(got[got["qid"] == qi].sort_values("rank")["vec_id"]) == want
    # unfiltered search on the same (already-cached) actors still sees
    # every label — the filter must not mutate the cached cluster state
    full = reader.search(queries, k=10, nprobe=8)
    assert not set(full["vec_id"]) <= label2
    reader.close()


def test_persisted_ivf_reads_only_probed_clusters(tmp_path, emb_ds, emb_rows):
    """Destructive spy: delete the parquet of every NON-probed cluster
    before the first search — if the actors touched them the search
    would crash, so success proves non-probed clusters are never read.
    Then delete the PROBED clusters' parquet too and search again —
    identical results prove repeated queries hit the in-actor cache and
    never re-read parquet."""
    import shutil

    import numpy as np

    from information_retrieval_images_ray.pipelines.similarity import (
        IVFIndexReader,
        _normalize,
        build_ivf_index,
    )

    queries = np.stack(
        [np.asarray(emb_rows[i]["embedding"], np.float64) for i in (0, 30)]
    )
    idx = str(tmp_path / "ivf_spy")
    build_ivf_index(emb_ds, idx, nlist=8)
    cent = np.load(f"{idx}/centroids.npy")
    q = _normalize(queries)
    probes = set(np.argsort(-(q @ cent.T), axis=1)[:, :2].flatten().tolist())
    non_probed = [c for c in range(len(cent)) if c not in probes]
    assert non_probed, "test needs at least one non-probed cluster"
    for c in non_probed:
        shutil.rmtree(f"{idx}/vectors/cluster={c}")
    reader = IVFIndexReader(idx, num_actors=3)
    first = reader.search(queries, k=10, nprobe=2)
    assert len(first) == 20
    for c in probes:
        shutil.rmtree(f"{idx}/vectors/cluster={c}")
    second = reader.search(queries, k=10, nprobe=2)
    assert second.equals(first)
    reader.close()


def test_hashed_ngram_embedder_properties():
    """Determinism across instances, unit norm, zero for empty text,
    seed/dim incompatibility by construction, and topical signal:
    texts sharing words are closer than disjoint ones."""
    from information_retrieval_images_ray.functions.embedder import (
        HashedNgramEmbedder,
    )

    e = HashedNgramEmbedder(dim=64)
    a = e.embed(["the quick brown fox", "", "   "])
    b = HashedNgramEmbedder(dim=64).embed(["the quick brown fox"])
    np.testing.assert_array_equal(a[0], b[0])  # cross-instance determinism
    assert abs(np.linalg.norm(a[0]) - 1.0) < 1e-12
    assert np.all(a[1] == 0) and np.all(a[2] == 0)  # empty -> zero vector

    s = e.embed(["alpha beta gamma", "alpha beta delta", "xxqjz wvkpy mmnrt"])
    assert s[0] @ s[1] > s[0] @ s[2]  # shared words -> higher cosine

    assert not np.array_equal(
        HashedNgramEmbedder(dim=64, seed=1).embed(["alpha"])[0],
        HashedNgramEmbedder(dim=64, seed=2).embed(["alpha"])[0],
    )
    with pytest.raises(ValueError):
        HashedNgramEmbedder(dim=0)


def test_embed_text_pipeline_feeds_knn():
    """embed_text_pipeline output drops straight into knn_bruteforce;
    a doc queried by its own text self-matches at sim 1."""
    from information_retrieval_images_ray.functions.embedder import (
        HashedNgramEmbedder,
    )
    from information_retrieval_images_ray.pipelines.similarity import (
        embed_text_pipeline,
        knn_bruteforce,
    )

    rows = [{"doc_id": i, "text": f"topic{i % 5} word{i} filler common"}
            for i in range(40)]
    emb = embed_text_pipeline(ray.data.from_items(rows), dim=32)
    q = HashedNgramEmbedder(dim=32).embed([rows[11]["text"]])
    out = knn_bruteforce(emb, q, k=3)
    assert int(out.iloc[0]["vec_id"]) == 11
    assert int(out.iloc[0]["sim_e6"]) == 1_000_000


def test_text_embed_components_match_embedder():
    """The exploded (doc_id, bucket, weight_e6) surface equals the
    dense embedder's nonzero entries, independent of partitioning —
    and empty text contributes no rows (zero vector)."""
    import pandas as pd

    from information_retrieval_images_ray.functions.embedder import (
        HashedNgramEmbedder,
    )
    from information_retrieval_images_ray.pipelines.analysis import e6
    from information_retrieval_images_ray.pipelines.similarity import (
        text_embed_components,
    )

    rows = [{"doc_id": i, "text": f"topic{i % 3} word{i} shared filler"}
            for i in range(25)] + [{"doc_id": 25, "text": "   "}]

    def run(n_parts):
        ds = ray.data.from_items(rows).repartition(n_parts)
        return (
            text_embed_components(ds, dim=16)
            .to_pandas()
            .sort_values(["doc_id", "bucket"])
            .reset_index(drop=True)
        )

    got = run(1)
    mat = HashedNgramEmbedder(dim=16).embed([r["text"] for r in rows])
    r_idx, b = np.nonzero(mat)
    want = pd.DataFrame({
        "doc_id": pd.array([rows[i]["doc_id"] for i in r_idx], dtype="int64"),
        "bucket": b.astype("int64"),
        "weight_e6": e6(mat[r_idx, b]),
    }).sort_values(["doc_id", "bucket"]).reset_index(drop=True)
    assert got.equals(want)
    assert 25 not in set(got["doc_id"])  # empty text -> zero vector -> no rows
    assert run(5).equals(got)  # partitioning-invariant
