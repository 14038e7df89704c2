"""Ray-Data-native inverted-index build + BM25 query engine.

A from-scratch re-expression of the retrieval semantics of the reference
repo ``BenjaminRichter-g/Information_Retrieval_Images`` (content-hash
document identity, idempotent/incremental index build, stateful
featurization, top-k query with scores, metadata hydration, golden-output
evaluation — see /root/repo/SURVEY.md) as an idiomatic
``ray.data.Dataset`` pipeline:

- read Parquet source-code corpora (``repo, path, commit, lang, content``)
- ``map_batches`` over zero-copy Arrow for sha256 + code-aware tokenize
- one task per doc-range shard, with no exchange, encoding the shard's
  per-term posting lists, delta + varbyte compressed
- exhaustive term-at-a-time BM25 top-k over the compressed postings
  (one accumulator for every query mode), served by stateful actors
  holding loaded index shards
- checkpoint manifest with per-partition lineage so a killed build
  resumes without recomputing completed partitions

Nothing here calls ``ray.init()``; the caller owns the Ray session.
"""

__version__ = "0.1.0"
