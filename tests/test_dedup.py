"""Exact dedup (content-hash identity, the reference's only dedup rule)."""

import numpy as np
import ray.data

from information_retrieval_images_ray.pipelines.analysis import exact_dedup_groups

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform victor"
).split()


def _mk_docs():
    """40 base docs + one exact dup + two near dups (1-2 word edits)."""
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


def test_exact_dedup_groups():
    """Only the exact copy collapses, into doc 3; near copies stay."""
    docs = _mk_docs()
    out = exact_dedup_groups(ray.data.from_items(docs)).to_pandas()
    assert len(out) == len(docs) - 1  # one exact dup collapses
    dup = out[out["dup_count"] > 1]
    assert len(dup) == 1
    assert int(dup["keep_doc_id"].iloc[0]) == 3  # deterministic first
