"""Composed training-data export: quality filter -> exact dedup ->
hash split -> hive-partitioned parquet (pipelines/export.py)."""

import glob
import json
import os

import pandas as pd
import pytest
import ray.data

from information_retrieval_images_ray.functions.hashing import md5_u64
from information_retrieval_images_ray.pipelines.export import export_training_data

# passes every Gopher rule: 30+ varied tokens incl. stopwords, no
# repeated 2-gram dominating, no duplicated 5-grams
GOOD = ("the quick brown fox jumps over a lazy dog while many other "
        "animals watch the bright summer sky and wonder about food "
        "with great interest in every single moment of it")
BAD = "spam " * 40  # one 1-gram dominates -> fails pass_top2 (and stop)


def _corpus():
    rows = []
    for i in range(20):
        rows.append({"doc_id": i, "text": GOOD + f" extra token{i}",
                     "lang": "en" if i % 2 == 0 else "fr"})
    # exact duplicates of doc 3's content (min-id survivor is 3)
    for i in (20, 21):
        rows.append({"doc_id": i, "text": GOOD + " extra token3",
                     "lang": "fr"})
    rows.append({"doc_id": 22, "text": BAD, "lang": "en"})  # filtered
    return rows


def _expect_summary(rows, survivors):
    recs = []
    for r in rows:
        if r["doc_id"] not in survivors:
            continue
        b = md5_u64(str(r["doc_id"])) % 100
        split = "train" if b < 80 else ("val" if b < 90 else "test")
        recs.append({"split": split, "lang": r["lang"],
                     "doc_id": r["doc_id"],
                     "n_tokens": len(r["text"].lower().split())})
    df = pd.DataFrame(recs)
    out = df.groupby(["split", "lang"], as_index=False).agg(
        n_docs=("doc_id", "size"), total_tokens=("n_tokens", "sum"),
        min_doc_id=("doc_id", "min"), max_doc_id=("doc_id", "max"))
    return (out.sort_values(["split", "lang"]).reset_index(drop=True)
            .astype({"n_docs": "int64", "total_tokens": "int64",
                     "min_doc_id": "int64", "max_doc_id": "int64"}))


def test_export_layout_summary_and_dedup(tmp_path):
    rows = _corpus()
    out = str(tmp_path / "exp")
    summary = export_training_data(ray.data.from_items(rows), out)

    # doc 22 quality-dropped; 20/21 are dup of 3 -> survivors 0..19
    want = _expect_summary(rows, set(range(20)))
    assert summary.equals(want)

    # hive layout + manifest reflect the written data
    files = glob.glob(os.path.join(out, "data", "split=*", "lang=*", "*.parquet"))
    assert files
    man = json.load(open(os.path.join(out, "_export.json")))
    assert man["n_distinct"] == 20 and man["dedup_filter"] == "exact"
    assert man["partitions"] == summary.to_dict(orient="records")
    assert not os.path.exists(os.path.join(out, "_kept_tmp"))  # spill cleaned

    # written rows: survivor ids only, exactly once
    got = ray.data.read_parquet(os.path.join(out, "data")).to_pandas()
    assert sorted(got["doc_id"]) == list(range(20))

    # completed export: re-run is a manifest-gated NO-OP (same summary,
    # no data rewrite)
    mtimes = {f: os.path.getmtime(f) for f in files}
    again = export_training_data(ray.data.from_items(rows), out)
    assert again.equals(summary)
    assert {f: os.path.getmtime(f) for f in files} == mtimes

    # guard: refuses a dir holding anything that is not export state
    foreign = str(tmp_path / "foreign")
    os.makedirs(foreign)
    open(os.path.join(foreign, "keep.txt"), "w").close()
    with pytest.raises(ValueError):
        export_training_data(ray.data.from_items(rows), foreign)


def test_export_crash_resume_rebuilds_clean(tmp_path):
    """A run that died before the manifest landed (data present, no
    _export.json) restarts clean and re-lands identical output."""
    rows = _corpus()
    out = str(tmp_path / "exp")
    first = export_training_data(ray.data.from_items(rows), out)
    os.remove(os.path.join(out, "_export.json"))  # simulate the crash
    second = export_training_data(ray.data.from_items(rows), out)
    assert second.equals(first)
    assert os.path.exists(os.path.join(out, "_export.json"))
    got = ray.data.read_parquet(os.path.join(out, "data")).to_pandas()
    assert sorted(got["doc_id"]) == list(range(20))
    # the final output never carries the spill-internal md5 column
    assert "content_md5" not in got.columns


def test_export_all_filtered_lands_empty(tmp_path):
    """A corpus the quality filter fully rejects lands an EMPTY export
    (stable summary schema, manifest, empty data dir) instead of
    crashing on the missing spill; re-run is the same no-op."""
    rows = [{"doc_id": i, "text": BAD, "lang": "en"} for i in range(5)]
    out = str(tmp_path / "exp")
    summary = export_training_data(ray.data.from_items(rows), out)
    assert list(summary.columns) == ["split", "lang", "n_docs",
                                     "total_tokens", "min_doc_id",
                                     "max_doc_id"]
    assert len(summary) == 0
    man = json.load(open(os.path.join(out, "_export.json")))
    assert man["n_distinct"] == 0 and man["partitions"] == []
    assert os.path.isdir(os.path.join(out, "data"))
    assert not os.path.exists(os.path.join(out, "_kept_tmp"))
    again = export_training_data(ray.data.from_items(rows), out)
    assert again.equals(summary)
