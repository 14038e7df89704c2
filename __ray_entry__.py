"""Driver contract for the Ray-Data-native inverted-index / BM25 engine.

``entry()`` runs the flagship build+query+hydrate pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator family from
SURVEY.md §2 (+ the training-data additions); every one reads only the
``documents`` and ``embeddings`` tables. ``oracle_sql()`` gives the
DuckDB-equivalent SQL for each of them. Column names and
value encodings match exactly (fractional outputs are fixed-point
BIGINT ``*_eN = floor(x*10^N + 0.5)`` on both sides so the driver's
value-hash never trips on float representation).

Ray is initialised by the driver before import; nothing here calls
ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from information_retrieval_images_ray.pipelines.analysis import (
    EN_STOPWORDS,
    PII_ORDER,
    PII_PATTERNS,
)

TOK_SQL = "regexp_extract_all(lower(text), '[a-z0-9]+')"

# shared winnowing CTE (k=5 token grams, w=4 windows, 60-bit md5-prefix
# hashes — the exact SQL mirror of dedup._winnow_set)
WINNOW_CTE = f"""WITH toks AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
kg AS (SELECT doc_id, u.i AS pos,
        CAST(concat('0x', substr(md5(array_to_string(ts[u.i : u.i + 4], ' ')), 1, 15)) AS BIGINT) AS h
       FROM toks CROSS JOIN LATERAL unnest(range(1, greatest(len(ts) - 3, 1))) AS u(i)),
win AS (SELECT doc_id, pos,
         min(h) OVER (PARTITION BY doc_id ORDER BY pos
                      ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS fp,
         count(*) OVER (PARTITION BY doc_id) AS m
        FROM kg),
-- value-based simple winnowing: full w=4 windows only (1-based pos
-- <= m-3), except short docs (m <= 4) keep their single min-of-all
sel AS (SELECT DISTINCT doc_id, fp FROM win WHERE pos <= greatest(m - 3, 1))"""


# ---------------------------------------------------------------------------
def entry() -> Any:
    """Flagship: BM25 index build over sf0.001 documents + frozen query
    battery via the actor-pool scorer + metadata hydration."""
    from information_retrieval_images_ray.pipelines.flagship import flagship_entry

    return flagship_entry("/root/testdata/sf0.001")


# ---------------------------------------------------------------------------
# queries


def queries() -> dict[str, Callable[[str], Any]]:
    from information_retrieval_images_ray.pipelines import (
        analysis,
        bpe,
        dedup,
        evaluation,
        flagship,
        hybrid,
        export,
        similarity,
        sketches,
    )
    import ray.data

    def docs(sf_dir):
        return ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )

    def embs(sf_dir):
        return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def knn_queries(sf_dir, fn, **kw):
        import pyarrow.parquet as pq

        t = pq.read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ).to_pandas()
        t = t.set_index("vec_id")
        q = np.stack([np.asarray(t.loc[i, "embedding"], np.float64) for i in (0, 1, 2)])
        return fn(embs(sf_dir), q, **kw)

    def ivf_persisted(sf_dir, filter_col=None, filter_value=None):
        """Build-once persisted IVF index (cluster-partitioned parquet)
        searched through the cluster-actor pool; probed exhaustively
        (nprobe == nlist) so the brute-force top-k SQL is exact.
        ``filter_col``/``filter_value`` exercise pre-filtered ANN: the
        metadata predicate is applied inside the cluster actors BEFORE
        scoring, so only matching vectors enter the matmul."""
        import hashlib
        import os

        from information_retrieval_images_ray.state.manifest import fingerprint_file

        src = f"{sf_dir}/embeddings.parquet"
        key = hashlib.sha256(
            f"{os.path.abspath(src)}|{fingerprint_file(src)}|nlist8".encode()
        ).hexdigest()[:16]
        idx = os.path.join("/tmp", "iri_ray_cache", f"ivfidx_{key}")
        similarity.build_ivf_index(embs(sf_dir), idx, nlist=8)

        def run(ds_unused, q, k):
            reader = similarity.IVFIndexReader(idx, num_actors=2)
            try:
                return reader.search(
                    q, k=k, nprobe=8,
                    filter_col=filter_col, filter_value=filter_value,
                )
            finally:
                reader.close()

        return knn_queries(sf_dir, run, k=10)

    def training_export(sf_dir):
        """The composed training-data export (quality filter -> exact
        dedup -> hash split -> partitioned parquet): runs the full
        pipeline to a scratch dir, returns the per-(split, lang)
        summary computed from the WRITTEN files, then removes the
        scratch output."""
        import shutil
        import tempfile

        out = tempfile.mkdtemp(prefix="iri_export_")
        try:
            return export.export_training_data(docs(sf_dir), out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def ivf_lifecycle(sf_dir, mode):
        """Persisted-IVF maintenance keys (the vector-side mirror of
        q_bm25_delta / q_bm25_deleted / q_bm25_compacted):

        - ``extended``: build over vec_id % 4 != 0, then
          extend_ivf_index with the FULL table (overlapping delta —
          only the % 4 == 0 rows are new). Exhaustive probing makes
          the all-rows cosine top-k SQL exact.
        - ``deleted``: build over everything, tombstone vec_id % 7 == 0;
          oracle excludes them.
        - ``compacted``: build-subset + extend + delete + compact
          (refit=False) — results must equal the ``deleted`` oracle,
          proving compaction is invisible to searches.

        Each mode owns a fingerprint-keyed cache dir; the mutation
        sequence is idempotent (extend anti-joins, delete set-unions,
        compact generation-swaps), and a 'lifecycle' marker in ivf.json
        short-circuits repeat driver runs."""
        import hashlib
        import json
        import os

        import pyarrow.compute as pc

        from information_retrieval_images_ray.state.manifest import fingerprint_file

        src = f"{sf_dir}/embeddings.parquet"
        key = hashlib.sha256(
            f"{os.path.abspath(src)}|{fingerprint_file(src)}|nlist8|{mode}".encode()
        ).hexdigest()[:16]
        idx = os.path.join("/tmp", "iri_ray_cache", f"ivfidx_{key}")

        meta_path = os.path.join(idx, "ivf.json")
        done = False
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                done = json.load(f).get("lifecycle") == mode
        if not done:
            def subset(b):
                return b.filter(pc.not_equal(pc.bit_wise_and(b["vec_id"], 3), 0))

            if mode == "extended":
                similarity.build_ivf_index(
                    embs(sf_dir).map_batches(subset, batch_format="pyarrow"),
                    idx, nlist=8)
                similarity.extend_ivf_index(embs(sf_dir), idx)
            elif mode == "deleted":
                similarity.build_ivf_index(embs(sf_dir), idx, nlist=8)
            elif mode == "compacted":
                similarity.build_ivf_index(
                    embs(sf_dir).map_batches(subset, batch_format="pyarrow"),
                    idx, nlist=8)
                similarity.extend_ivf_index(embs(sf_dir), idx)
            if mode in ("deleted", "compacted"):
                import pyarrow.parquet as pq

                all_ids = pq.read_table(src, columns=["vec_id"])["vec_id"].to_pylist()
                similarity.delete_ivf_vectors(
                    idx, [i for i in all_ids if i % 7 == 0])
            if mode == "compacted":
                similarity.compact_ivf_index(idx)
            meta = similarity._read_ivf_meta(idx)
            meta["lifecycle"] = mode
            similarity._write_ivf_meta(idx, meta)

        def run(ds_unused, q, k):
            reader = similarity.IVFIndexReader(idx, num_actors=2)
            try:
                return reader.search(q, k=k, nprobe=8)
            finally:
                reader.close()

        return knn_queries(sf_dir, run, k=10)

    return {
        # -- inverted index / BM25 (S1-S6, M1-M5, T1-T2, A7, G-extras) -------
        "q_bm25_topk": lambda sf: flagship.run_bm25_queries(sf, k=10),
        # incremental delta build (S5/S7 family): lower half built,
        # upper half appended via extend_index; results must equal the
        # full-corpus build, so its oracle is the same BM25 SQL
        "q_bm25_delta": lambda sf: flagship.run_bm25_queries_delta(sf, k=10),
        # S7 maintenance: tombstone delete honored by the scorers, and
        # compaction (rebuild-without-deleted) equal to a fresh build
        "q_bm25_deleted": lambda sf: flagship.run_bm25_queries_deleted(sf, k=10),
        # content-level dedup on extend: a delta of re-sent content is
        # skipped entirely, so the index equals the plain full build
        "q_bm25_delta_dedup": lambda sf: flagship.run_bm25_queries_delta_dedup(sf, k=10),
        # content dedup wired into the INITIAL build (dedup=True):
        # every doc sent twice, one survivor per distinct content
        "q_bm25_dedup_build": lambda sf: flagship.run_bm25_queries_dedup_build(sf, k=10),
        "q_bm25_compacted": lambda sf: flagship.run_bm25_queries_compacted(sf, k=10),
        # query-time metadata filter: rank only docs whose docmeta
        # lang matches; corpus stats stay GLOBAL (tombstone-style
        # semantics), so the oracle is ranked_where on the full CTE
        # segment merge: two disjoint half indexes combined ==
        # a single full build (full-corpus oracle)
        "q_bm25_merged": lambda sf: flagship.run_bm25_queries_merged(sf, k=10),
        # deterministic deep paging: absolute ranks 11..20
        "q_bm25_page": lambda sf: flagship.run_bm25_queries_page(
            sf, k=10, offset=10
        ),
        # the same ranks 11..20 via CURSOR paging (search_after shape):
        # page-1's last (score, doc_id) seeds page 2 — no recompute of
        # skipped ranks, through the serving router
        "q_bm25_cursor": lambda sf: flagship.run_bm25_cursor_queries(
            sf, k=10
        ),
        # pseudo-relevance feedback (Rocchio-style): base top-5 as the
        # feedback set, 8 expansion terms by summed-tf·idf, re-scored
        # with expansion terms at 0.5·idf — all pure functions of the
        # tf/df/dl tables, so fully SQL-mirrored
        "q_bm25_prf": lambda sf: flagship.run_bm25_queries_prf(
            sf, k=10, fb_docs=5, fb_terms=8, beta=0.5
        ),
        # Lucene-style explain: per-(qid, top-3 doc, matching term)
        # BM25 component breakdown; contributions sum to the ranked
        # score bitwise
        "q_bm25_explain": lambda sf: flagship.run_bm25_explain(
            sf, top_docs=3
        ),
        "q_bm25_filtered": lambda sf: flagship.run_bm25_queries_filtered(sf, lang="fr", k=10),
        # phrase search: conjunctive candidates from the postings, then
        # adjacency verified from the positions sidecar's (term, doc,
        # positions) rows — no corpus re-read; phrase length 2 so every battery entry fills its top-10
        # (exercises the rank truncation, not just the verify filter)
        "q_phrase_topk": lambda sf: flagship.run_phrase_queries(sf, k=10, n_tokens=2),
        # the same phrase battery under its positional-sidecar key, so
        # its oracle IS the phrase oracle
        "q_phrase_positional": lambda sf: flagship.run_phrase_queries(sf, k=10, n_tokens=2),
        # proximity: all terms within a token window (minimal-cover
        # sweep over the sidecar's position lists), BM25-ranked
        "q_proximity_search": lambda sf: flagship.run_proximity_queries(sf, k=10),
        # ordered span-near (Lucene span_near in_order=true): terms in
        # QUERY ORDER within a token window, greedy ordered-chain
        # verify over the sidecar's position lists, BM25-ranked
        "q_span_near": lambda sf: flagship.run_spannear_queries(sf, k=10),
        # boolean clauses: must AND / should OR / must_not exclusion,
        # ranked by BM25 over the distinct (must + should) terms present
        "q_boolean_search": lambda sf: flagship.run_boolean_queries(sf, k=10),
        # dictionary expansions (tolerant retrieval): prefix range scan
        # and banded-Levenshtein fuzzy match over the sorted term
        # dictionary, OR-scored with per-expansion idf
        "q_prefix_search": lambda sf: flagship.run_prefix_queries(sf, k=10),
        "q_fuzzy_search": lambda sf: flagship.run_fuzzy_queries(sf, k=10),
        "q_synonym_search": lambda sf: flagship.run_synonym_queries(sf, k=10),
        "q_wildcard_search": lambda sf: flagship.run_wildcard_queries(sf, k=10),
        # regex retrieval (Lucene RegexpQuery shape): anchored
        # full-match dictionary expansion — literal prefix prunes to
        # one range probe, class/alternation heads scan — OR-scored
        "q_regex_search": lambda sf: flagship.run_regex_queries(sf, k=10),
        # query-time term boosting (Lucene term^boost clauses):
        # boost·idf through the weighted OR path; an unboosted query
        # is bitwise plain BM25, repeated clauses sum their boosts
        "q_boosted_search": lambda sf: flagship.run_boosted_queries(sf, k=10),
        # field collapsing: per query the top-k docmeta[lang] groups,
        # each as its (score desc, doc_id asc) leader hit + the
        # group's FULL match count, through the serving router
        "q_collapse_search": lambda sf: flagship.run_collapse_queries(
            sf, field="lang", k=10
        ),
        # faceted search: full-match-set distribution over docmeta
        # columns (lang, source) per battery query, computed through
        # the serving router
        "q_faceted_search": lambda sf: flagship.run_facet_queries(sf),
        # numeric range faceting (Elasticsearch range-aggregation
        # shape): token-length histogram of each query's full match
        # set, through the serving router
        "q_range_facets": lambda sf: flagship.run_length_facet_queries(sf),
        # more-like-this: per-anchor tf·idf term selection + OR
        # scoring through the serving router, anchor excluded
        "q_more_like_this": lambda sf: flagship.run_mlt_queries(sf, k=10),
        # snippets/highlighting: best fixed-window span per battery
        # hit over its tokenized text + the rendered snippet text
        "q_snippets": lambda sf: flagship.run_snippet_queries(sf, k=5, window=8),
        "q_index_segments": lambda sf: flagship.segment_summary(sf),
        # term vectors (_termvectors shape): anchor docs' (term, tf)
        # from one doc_id-pruned docterms read + exact global df
        "q_term_vectors": lambda sf: flagship.run_term_vector_queries(sf),
        # significant terms (ES aggregation): add-one log-odds of each
        # term's doc rate in the query's match-set sample vs the
        # corpus, through the serving router (one replica call: match
        # set, pruned docterms read, exact df)
        "q_significant_terms": lambda sf: flagship.run_significant_queries(sf),
        "q_term_stats": lambda sf: analysis.term_stats(docs(sf)),
        "q_doc_lengths": lambda sf: analysis.doc_lengths(docs(sf)),
        "q_corpus_stats": lambda sf: analysis.corpus_stats(docs(sf)),
        # -- text analysis ---------------------------------------------------
        "q_quality": lambda sf: analysis.quality_scores(docs(sf)),
        "q_fingerprints": lambda sf: analysis.fingerprints(docs(sf)),
        "q_token_count_by_lang": lambda sf: analysis.token_count_by_lang(docs(sf)),
        "q_langid": lambda sf: analysis.langid(docs(sf)),
        # PII scan + redaction: per-class counts over the original
        # text, redacted-text length + sha256 prefix per doc
        "q_pii_scan": lambda sf: analysis.pii_scan(docs(sf)),
        # search-as-you-type: top-5 df-ranked completions per prefix
        "q_autocomplete": lambda sf: analysis.autocomplete(docs(sf)),
        # did-you-mean: top-3 vocab terms within 2 edits per typo,
        # ranked (dist, df desc, term) — DirectSpellChecker contract
        "q_spell_suggest": lambda sf: analysis.spell_suggest(docs(sf)),
        # Gopher repetition filters: top n-gram token fraction +
        # duplicated-5-gram coverage per doc
        "q_repetition_stats": lambda sf: analysis.repetition_stats(docs(sf)),
        # corpus-trained bigram-LM fluency scores (the CCNet-style
        # perplexity-filter shape, integer-exact p_e6 arithmetic)
        "q_bigram_lm": lambda sf: analysis.bigram_lm_scores(docs(sf)),
        # NTILE quartiles of token count per lang (thin-row exchange)
        "q_length_quartiles": lambda sf: analysis.length_quartiles(
            ray.data.read_parquet(
                f"{sf}/documents.parquet", columns=["doc_id", "text", "lang"]
            )
        ),
        # the actionable keep/drop: fused single-pass Gopher decision
        "q_quality_filter": lambda sf: analysis.quality_filter(docs(sf)),
        # HyperLogLog distinct-term sketch: mergeable per-batch
        # registers (integer-exact oracle) + estimate vs exact
        "q_hll_registers": lambda sf: analysis.hll_registers(docs(sf)),
        "q_hll_distinct": lambda sf: analysis.hll_distinct(docs(sf)),
        # all-pairs TF-IDF cosine similarity (Bayardo WWW'07 shape):
        # shared-term candidate generation with df pruning, integer e6
        # dot/norm contributions, capped per-term pair groups
        "q_tfidf_pairs": lambda sf: analysis.tfidf_cosine_pairs(docs(sf)),
        # 'related documents': per doc the top-3 neighbors from the
        # symmetrized TF-IDF pair graph (cos desc, neighbor asc)
        "q_related_docs": lambda sf: analysis.tfidf_related_docs(docs(sf)),
        # per-doc Shannon entropy of the token distribution (the
        # repetitiveness/diversity quality signal) — one shuffle-free
        # pass, integer e12 contributions so the sum is order-free
        "q_doc_entropy": lambda sf: analysis.doc_token_entropy(docs(sf)),
        # per-source unigram KL divergence vs the corpus distribution
        # (corpus-drift / domain-shift diagnostic): thin (source, term,
        # n) exchange + broadcast totals + integer e12 contributions
        "q_source_kl": lambda sf: analysis.source_kl_divergence(
            ray.data.read_parquet(
                f"{sf}/documents.parquet", columns=["source", "text"]
            )
        ),
        # mergeable moments sketch: distributed Pearson correlation
        # between doc length and token entropy (one (n, Σx, Σy, Σxy,
        # Σx², Σy²) partial per batch, add-merged — the shape every
        # distributed variance/covariance/regression reduces to)
        "q_len_entropy_corr": lambda sf: analysis.length_entropy_correlation(docs(sf)),
        # grouped cardinality (the ES cardinality sub-aggregation):
        # one 64-register HLL per lang, merged by a
        # groupby((lang, bucket)).max exchange of thin register rows
        "q_hll_by_lang": lambda sf: analysis.hll_by_group(docs(sf), key="lang"),
        # count-min sketch: the ADD-mergeable heavy-hitter counterpart
        # of the HLL's MAX-mergeable distinct count — per-batch
        # register partials, one groupby sum, integer-exact oracle
        "q_cms_registers": lambda sf: sketches.cms_registers(docs(sf)),
        # point estimates (min over rows) vs exact counts for the
        # frozen candidate battery — est >= exact by construction
        "q_cms_heavy_hitters": lambda sf: sketches.cms_heavy_hitters(docs(sf)),
        # BPE tokenizer training, stage-one surface: adjacent
        # char-pair counts (the merge loop's first iteration),
        # per-batch combiner + one groupby sum. The full merge loop
        # (learn_bpe) + encode stage are pytest-gated (iterative —
        # not SQL-expressible)
        "q_bpe_pair_counts": lambda sf: bpe.bpe_pair_counts(docs(sf)),
        # deterministic stratified sampling: per lang the 20 docs with
        # the smallest 60-bit md5(text) — reorder/partition/extend-
        # stable, per-batch heap combiner bounds the driver merge
        "q_stratified_sample": lambda sf: analysis.stratified_sample(
            docs(sf), n_per_group=20
        ),
        # percolator (reverse search): route each doc to the stored
        # conjunctive queries it satisfies — broadcast subscriptions,
        # one shuffle-free map_batches pass
        "q_percolate": lambda sf: analysis.percolate(docs(sf)),
        # corpus length histogram (10-token buckets)
        "q_length_histogram": lambda sf: analysis.length_histogram(docs(sf)),
        # token counting both ways (whitespace + BPE-ish pre-tokenizer)
        "q_token_counts": lambda sf: analysis.token_counts(docs(sf)),
        # deterministic global shuffle: seeded-hash training order,
        # stable under cluster shape / partitioning / resume
        "q_train_order": lambda sf: analysis.train_order(
            ray.data.read_parquet(f"{sf}/documents.parquet", columns=["doc_id"]),
            seed=17,
        ),
        # per-language keep rates of the Gopher filter
        "q_quality_filter_rates": lambda sf: analysis.quality_filter_rates(docs(sf)),
        # the composed export: quality filter -> exact dedup -> hash
        # split -> hive-partitioned parquet; summary from written files
        "q_training_export": lambda sf: training_export(sf),
        # domain characterization: top log-odds terms per source
        "q_distinctive_terms": lambda sf: analysis.distinctive_terms(
            ray.data.read_parquet(
                f"{sf}/documents.parquet", columns=["source", "text"]
            ),
            k=3,
        ),
        # domain mixing: hash-deterministic per-source downsampling
        "q_source_mix": lambda sf: analysis.source_mix(
            ray.data.read_parquet(
                f"{sf}/documents.parquet", columns=["doc_id", "source"]
            )
        ),
        # hash-based train/val/test split: stable under reorder,
        # resume and extend (no doc ever migrates between splits)
        "q_split_summary": lambda sf: analysis.split_summary(docs(sf)),
        # context-window packing: concatenate-and-chunk position of
        # every doc in the 2048-token training stream
        "q_pack_sequences": lambda sf: analysis.pack_sequences(
            docs(sf), budget=2048, bucket_width=64
        ),
        # collocation mining: top-50 within-10-token co-occurring pairs
        "q_term_cooccurrence": lambda sf: analysis.term_cooccurrence(
            docs(sf), window=10, k=50
        ),
        # keyword extraction: top-5 TF-IDF terms per doc (df from the
        # combiner, broadcast idf, per-doc top-k inside the map task)
        "q_tfidf_terms": lambda sf: analysis.tfidf_top_terms(docs(sf), k=5),
        # -- dedup (D1 + near-dup family) ------------------------------------
        "q_exact_dedup": lambda sf: dedup.exact_dedup_groups(docs(sf)),
        "q_ngram_jaccard": lambda sf: dedup.ngram_jaccard_pairs(docs(sf), n=5),
        # connected components over the near-dup pair graph (keep one
        # doc per CLUSTER, not per pair)
        "q_dup_clusters": lambda sf: dedup.dup_clusters(docs(sf), n=5),
        # the dedup ACTION list: every doc's component label + keep=1
        # iff it is the component's min-id canonical representative
        "q_neardup_survivors": lambda sf: dedup.neardup_survivors(docs(sf), n=5),
        # component-size distribution (pairs vs template families —
        # the dedup report's headline statistic)
        "q_cluster_size_hist": lambda sf: dedup.dup_cluster_size_hist(docs(sf), n=5),
        # the same components computed DISTRIBUTED: alternating
        # large-star/small-star groupby rounds over the edge set
        # (Kiveris et al. 2014) — no driver union-find
        "q_dup_components": lambda sf: dedup.dup_components(docs(sf), n=5),
        # per-doc triangle counts (degree-oriented wedge algorithm):
        # clique-density signal over the same pair graph
        "q_dup_triangles": lambda sf: dedup.dup_triangles(docs(sf), n=5),
        # local clustering coefficients 2T/(d(d-1)): clique-vs-hub
        # signal composing degrees + the distributed triangle count
        "q_clustering_coeff": lambda sf: dedup.dup_clustering_coefficients(docs(sf), n=5),
        # fixed-point integer PageRank over the pair graph: which copy
        # is the canonical/template doc its near-dups orbit (k
        # synchronous rounds of tagged-union join + groupby-sum,
        # bit-exact across engines by integer arithmetic)
        "q_dup_pagerank": lambda sf: dedup.dup_pagerank(docs(sf), n=5, iters=6),
        # substring-level duplication: fraction of each doc's tokens
        # covered by an 8-token window shared verbatim with another
        # doc (Lee et al. 2022 cross-doc window form)
        "q_span_coverage": lambda sf: dedup.dup_span_coverage(docs(sf), window=8),
        # the corrective twin: rebuild every doc with its duplicated
        # 8-token spans removed; cleaned text attested by md5 (only
        # the digest rides the result)
        "q_trim_spans": lambda sf: dedup.trim_dup_spans(docs(sf), window=8),
        # asymmetric containment |A∩B|/min(|A|,|B|) — catches short
        # docs embedded in long ones that Jaccard dilutes
        "q_ngram_containment": lambda sf: dedup.ngram_containment_pairs(docs(sf), n=5),
        # per-source exact-dup rates (crawl-health report)
        "q_dup_rate_by_source": lambda sf: analysis.dup_rate_by_source(
            ray.data.read_parquet(
                f"{sf}/documents.parquet", columns=["doc_id", "text", "source"]
            )
        ),
        # Heaps-law vocabulary growth curve in doc_id order
        "q_vocab_growth": lambda sf: analysis.vocab_growth(docs(sf), bucket=50),
        "q_minhash_neardup": lambda sf: dedup.minhash_near_dups(docs(sf), threshold=0.5),
        # incremental near-dup GATE: hash-split train docs become a
        # persisted MinHash store; test docs arrive as the new crawl
        # batch and are vetted cross-side against it (build_minhash_
        # store -> check_against_store end-to-end)
        "q_minhash_gate": lambda sf: dedup.minhash_gate_on_split(docs(sf)),
        "q_simhash_neardup": lambda sf: dedup.simhash_near_dups(docs(sf), max_hamming=3),
        # eval-set decontamination: train docs sharing a 5-gram with
        # any test doc under the deterministic hash split
        "q_decontaminate": lambda sf: dedup.decontaminate(docs(sf), n=5),
        # winnowing (rolling-hash document fingerprints + overlap)
        "q_winnow_fingerprints": lambda sf: dedup.winnow_doc_summary(docs(sf)),
        "q_winnow_overlap": lambda sf: dedup.winnow_overlap_pairs(docs(sf)),
        "q_embedding_neardup": lambda sf: similarity.embedding_near_dups(
            embs(sf), threshold=0.4, block_col="label"
        ),
        # the hashed-n-gram text embedder itself, exploded to its
        # nonzero (doc_id, bucket, weight_e6) components — DuckDB
        # replays the whole method (chr(0)-joined features -> md5
        # bucket+sign -> integer signed sums -> one sqrt+divide)
        "q_text_embed": lambda sf: similarity.text_embed_components(
            ray.data.read_parquet(
                f"{sf}/documents.parquet", columns=["doc_id", "text"]
            ),
            dim=16,
        ),
        # -- similarity search (T1 vector analogue) --------------------------
        "q_knn_cosine": lambda sf: knn_queries(sf, similarity.knn_bruteforce, k=10),
        "q_ivf_knn": lambda sf: knn_queries(sf, similarity.ivf_knn, k=10, nlist=8, nprobe=8),
        # persisted IVF index served by the cluster-actor pool
        "q_ivf_persisted": lambda sf: ivf_persisted(sf),
        # pre-filtered ANN: equality predicate on a metadata column
        # applied inside the cluster actors before scoring (the vector
        # mirror of q_bm25_filtered's query-time metadata filter)
        "q_ivf_filtered": lambda sf: ivf_persisted(
            sf, filter_col="label", filter_value=3
        ),
        # persisted-IVF maintenance lifecycle (the vector mirror of
        # q_bm25_delta / q_bm25_deleted / q_bm25_compacted)
        "q_ivf_extended": lambda sf: ivf_lifecycle(sf, "extended"),
        "q_ivf_deleted": lambda sf: ivf_lifecycle(sf, "deleted"),
        "q_ivf_compacted": lambda sf: ivf_lifecycle(sf, "compacted"),
        # hybrid retrieval: BM25 top-20 over documents fused with
        # cosine top-20 over embeddings by reciprocal rank fusion
        # (query vector = embedding of vec_id == qid)
        "q_hybrid_rrf": lambda sf: hybrid.hybrid_rrf_documents(
            sf, k=10, n_each=20
        ),
        # -- evaluation harness (G2-G5: P/R/F1, MAP, overlap@k) --------------
        "q_token_prf": lambda sf: evaluation.token_prf_documents(sf),
        "q_map_at_k": lambda sf: evaluation.map_at_k_documents(sf, k=10),
        "q_mrr_at_k": lambda sf: evaluation.mrr_documents(sf, k=10),
        # recall@10: fraction of ALL conjunctive-relevant docs
        # retrieved in the page (the metric a top-k page can't max out
        # when the relevant set is deeper than k)
        "q_recall_at_k": lambda sf: evaluation.recall_documents(sf, k=10),
        "q_overlap_topk": lambda sf: evaluation.overlap_documents(sf, k=10),
        "q_ndcg_at_k": lambda sf: evaluation.ndcg_at_k_documents(sf, k=10),
    }


# ---------------------------------------------------------------------------
# oracle SQL


def _bm25_cte_body(
    doc_filter: str = "TRUE", ranked_where: str = "", docs_sql: str | None = None
) -> str:
    """Shared WITH-body: frozen query battery -> tokenized corpus ->
    tf/df/dl/stats -> BM25 ``scored`` -> ``ranked``. Reused by the
    top-k, delta, MAP and overlap oracles.

    ``doc_filter`` restricts the CORPUS (compaction semantics: stats
    recomputed over survivors); ``ranked_where`` filters only the
    ranked candidates (tombstone semantics: full-corpus stats, deleted
    docs excluded from results); ``docs_sql`` replaces the corpus CTE
    entirely (dedup-build semantics: survivors of content dedup)."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import BM25_QUERIES

    vals = []
    for q in BM25_QUERIES:
        for t in sorted(set(tokenize_simple(q["query"]))):
            vals.append(f"({q['qid']}, '{t}')")
    values = ", ".join(vals)
    docs_cte = docs_sql or f"SELECT doc_id, text FROM documents WHERE {doc_filter}"
    return f"""queries(qid, term) AS (VALUES {values}),
docs AS ({docs_cte}),
tok AS (SELECT doc_id, unnest({TOK_SQL}) AS term FROM docs),
tf AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf FROM tok GROUP BY 1, 2),
dl AS (SELECT doc_id, CAST(len({TOK_SQL}) AS DOUBLE) AS dl FROM docs),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n, sum(dl)/count(*) AS avgdl FROM dl),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY 1),
scored AS (
  SELECT q.qid, tf.doc_id,
         sum( ln(1.0 + (s.n - df.df + 0.5)/(df.df + 0.5))
              * tf.tf*(1.2+1.0)/(tf.tf + 1.2*(1.0-0.75+0.75*dl.dl/s.avgdl)) ) AS score
  FROM queries q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2),
ranked AS (SELECT qid, doc_id, score,
                  row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rnk
           FROM scored {ranked_where})"""


def _bm25_sql(**cte_kw) -> str:
    return f"""
WITH {_bm25_cte_body(**cte_kw)}
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(FLOOR(score*1000000 + 0.5) AS BIGINT) AS score_e6
FROM ranked WHERE rnk <= 10
"""


def _explain_sql(top_docs: int = 3) -> str:
    """Lucene-explain oracle: per (qid, ranked-top doc, matching query
    term) BM25 contribution, from the SAME tf/df/dl/stats CTEs the
    top-k oracle ranks with (query.py IndexReader.explain)."""
    return f"""
WITH {_bm25_cte_body()},
contrib AS (
  SELECT q.qid, tf.doc_id, q.term, tf.tf, df.df,
         ln(1.0 + (s.n - df.df + 0.5)/(df.df + 0.5))
           * tf.tf*(1.2+1.0)/(tf.tf + 1.2*(1.0-0.75+0.75*dl.dl/s.avgdl)) AS c
  FROM queries q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s)
SELECT CAST(c.qid AS BIGINT) AS qid, CAST(c.doc_id AS BIGINT) AS doc_id,
       c.term, CAST(c.tf AS BIGINT) AS tf, CAST(c.df AS BIGINT) AS df,
       CAST(FLOOR(c.c*1000000 + 0.5) AS BIGINT) AS contribution_e6
FROM contrib c
JOIN ranked r ON r.qid = c.qid AND r.doc_id = c.doc_id
WHERE r.rnk <= {top_docs}
"""


def _prf_sql(k: int = 10, fb_docs: int = 5, fb_terms: int = 8,
             beta: float = 0.5) -> str:
    """Pseudo-relevance-feedback oracle (query.py mode ``prf``,
    ``IndexReader._resolve_feedback``): base ranking -> top-``fb_docs`` feedback
    set -> ``fb_terms`` expansion terms by summed-tf·idf (original
    terms excluded, term-asc tie-break) -> weighted OR re-score
    (original terms idf, expansion ``beta``·idf)."""
    return f"""
WITH {_bm25_cte_body()},
fb AS (SELECT qid, doc_id FROM ranked WHERE rnk <= {fb_docs}),
rel AS (SELECT f.qid, t.term, sum(t.tf) AS rtf
        FROM fb f JOIN tf t ON t.doc_id = f.doc_id
        GROUP BY 1, 2),
cand AS (SELECT r.qid, r.term,
                r.rtf * ln(1.0 + (s.n - d.df + 0.5)/(d.df + 0.5)) AS sc
         FROM rel r JOIN df d ON d.term = r.term CROSS JOIN stats s
         WHERE NOT EXISTS (SELECT 1 FROM queries q
                           WHERE q.qid = r.qid AND q.term = r.term)),
expn AS (SELECT qid, term FROM (
           SELECT qid, term,
                  row_number() OVER (PARTITION BY qid
                                     ORDER BY sc DESC, term) AS rn
           FROM cand) WHERE rn <= {fb_terms}),
wterms AS (SELECT qid, term, 1.0 AS wmul FROM queries
           UNION ALL SELECT qid, term, {beta} FROM expn),
rescored AS (
  SELECT w.qid, tf.doc_id,
         sum( w.wmul * ln(1.0 + (s.n - df.df + 0.5)/(df.df + 0.5))
              * tf.tf*(1.2+1.0)/(tf.tf + 1.2*(1.0-0.75+0.75*dl.dl/s.avgdl)) ) AS score
  FROM wterms w
  JOIN tf ON tf.term = w.term
  JOIN df ON df.term = w.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2),
reranked AS (SELECT qid, doc_id, score,
                    row_number() OVER (PARTITION BY qid
                                       ORDER BY score DESC, doc_id) AS rnk
             FROM rescored)
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(FLOOR(score*1000000 + 0.5) AS BIGINT) AS score_e6
FROM reranked WHERE rnk <= {k}
"""


# shared body of the n-gram near-dup oracles: distinct 5-gram shingles
# per doc, hot-shingle cap (max_group) mirrored, candidate pairs with
# common-shingle counts
_NGRAM_PAIR_CTE = f"""toks AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
sh AS (SELECT DISTINCT doc_id, array_to_string(ts[u.i : u.i + 4], ' ') AS shingle
       FROM toks CROSS JOIN LATERAL unnest(range(1, greatest(len(ts) - 3, 1))) AS u(i)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
eligible AS (SELECT shingle FROM sh GROUP BY 1 HAVING count(*) <= 1024),
common AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS c
           FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
           WHERE a.shingle IN (SELECT shingle FROM eligible)
           GROUP BY 1, 2)"""


def _pagerank_sql(iters: int = 6, scale: int = 10**12,
                  d_num: int = 85, d_den: int = 100) -> str:
    """Unrolled fixed-point integer PageRank mirror of
    ``dedup.dup_pagerank``: one CTE per synchronous round, every
    operation a BIGINT floor-division, so the chain is bit-identical
    to the engine's tagged-union-join rounds regardless of sum order
    (integer addition is associative; float PageRank would not be)."""
    init = f"({scale} // (SELECT c FROM nn))"
    base = f"(({d_den - d_num} * {init}) // {d_den})"
    rounds = []
    for t in range(iters):
        rounds.append(f"""pr{t + 1} AS (
  SELECT e.v AS doc_id,
         CAST({base} + sum(({d_num} * p.pr) // ({d_den} * dg.d)) AS BIGINT) AS pr
  FROM edges e
  JOIN pr{t} p ON p.doc_id = e.u
  JOIN deg2 dg ON dg.doc_id = e.u
  GROUP BY e.v)""")
    chain = ",\n".join(rounds)
    return f"""
WITH {_NGRAM_PAIR_CTE},
edges AS (SELECT doc_a AS u, doc_b AS v FROM common
          UNION ALL SELECT doc_b, doc_a FROM common),
deg2 AS (SELECT u AS doc_id, count(*) AS d FROM edges GROUP BY 1),
nn AS (SELECT count(*) AS c FROM deg2),
pr0 AS (SELECT doc_id, CAST({init} AS BIGINT) AS pr FROM deg2),
{chain}
SELECT CAST(deg2.doc_id AS BIGINT) AS doc_id,
       CAST(deg2.d AS BIGINT) AS degree,
       pr{iters}.pr AS pagerank_pp12
FROM deg2 JOIN pr{iters} ON pr{iters}.doc_id = deg2.doc_id
"""


def _span_coverage_sql(window: int = 8) -> str:
    """Mirror of ``dedup.dup_span_coverage``: window hashes are the
    same md5-u64 prefix of the space-joined token window; duplicated =
    carried by >= 2 distinct docs; covered positions via a lateral
    position expansion + DISTINCT (the set-union the engine computes
    with its difference array); pure-integer fixed-point coverage."""
    w = int(window)
    return f"""
WITH toks AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
win AS (SELECT doc_id, u.i AS s,
               CAST(concat('0x', substr(md5(
                   array_to_string(ts[u.i : u.i + {w - 1}], ' ')), 1, 16))
                    AS UBIGINT) AS wh
        FROM toks CROSS JOIN LATERAL
             unnest(range(1, greatest(len(ts) - {w - 2}, 1))) AS u(i)),
dupw AS (SELECT wh FROM win GROUP BY wh HAVING count(DISTINCT doc_id) >= 2),
dwin AS (SELECT doc_id, count(*) AS dup_windows
         FROM win JOIN dupw USING (wh) GROUP BY 1),
cov AS (SELECT DISTINCT w.doc_id, g.p
        FROM win w JOIN dupw USING (wh)
        CROSS JOIN LATERAL unnest(range(w.s, w.s + {w})) AS g(p)),
cnt AS (SELECT doc_id, count(*) AS covered FROM cov GROUP BY 1)
SELECT CAST(t.doc_id AS BIGINT) AS doc_id,
       CAST(len(t.ts) AS BIGINT) AS n_tokens,
       CAST(coalesce(dw.dup_windows, 0) AS BIGINT) AS dup_windows,
       CAST(coalesce(c.covered, 0) AS BIGINT) AS covered_tokens,
       CAST(CASE WHEN len(t.ts) > 0
                 THEN (2000000 * coalesce(c.covered, 0) + len(t.ts))
                      // (2 * len(t.ts))
                 ELSE 0 END AS BIGINT) AS coverage_e6
FROM toks t
LEFT JOIN dwin dw ON dw.doc_id = t.doc_id
LEFT JOIN cnt c ON c.doc_id = t.doc_id
"""


def _trim_spans_sql(window: int = 8) -> str:
    """Mirror of ``dedup.trim_dup_spans``: same window/dup-set CTEs as
    the coverage oracle, then keep = positions NOT covered, cleaned
    text = kept tokens re-joined in position order, attested by md5 —
    the digest (not the string) is what both sides compare."""
    w = int(window)
    return f"""
WITH toks AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
win AS (SELECT doc_id, u.i AS s,
               CAST(concat('0x', substr(md5(
                   array_to_string(ts[u.i : u.i + {w - 1}], ' ')), 1, 16))
                    AS UBIGINT) AS wh
        FROM toks CROSS JOIN LATERAL
             unnest(range(1, greatest(len(ts) - {w - 2}, 1))) AS u(i)),
dupw AS (SELECT wh FROM win GROUP BY wh HAVING count(DISTINCT doc_id) >= 2),
cov AS (SELECT DISTINCT w.doc_id, g.p
        FROM win w JOIN dupw USING (wh)
        CROSS JOIN LATERAL unnest(range(w.s, w.s + {w})) AS g(p)),
pos AS (SELECT doc_id, u.p AS p, ts[u.p] AS tk
        FROM toks CROSS JOIN LATERAL unnest(range(1, len(ts) + 1)) AS u(p)),
keep AS (SELECT pos.doc_id, pos.p, pos.tk
         FROM pos LEFT JOIN cov ON cov.doc_id = pos.doc_id AND cov.p = pos.p
         WHERE cov.p IS NULL),
cleaned AS (SELECT doc_id, count(*) AS kept,
                   array_to_string(list(tk ORDER BY p), ' ') AS txt
            FROM keep GROUP BY doc_id)
SELECT CAST(t.doc_id AS BIGINT) AS doc_id,
       CAST(len(t.ts) AS BIGINT) AS n_tokens,
       CAST(coalesce(cl.kept, 0) AS BIGINT) AS kept_tokens,
       CAST(len(t.ts) - coalesce(cl.kept, 0) AS BIGINT) AS removed_tokens,
       md5(coalesce(cl.txt, '')) AS cleaned_md5
FROM toks t LEFT JOIN cleaned cl ON cl.doc_id = t.doc_id
"""


def _phrase_sql(n_tokens: int = 3, k: int = 10) -> str:
    """Phrase top-k oracle: phrase(qid) = first n_tokens tokens of the
    anchor doc; a doc matches iff its space-joined token list contains
    the space-joined phrase with space padding (tokens are [a-z0-9]+,
    so LIKE containment IS the contiguous-subsequence test); matches
    ranked by the same BM25 sum as _bm25_cte_body over the phrase's
    distinct terms."""
    from information_retrieval_images_ray.pipelines.flagship import PHRASE_ANCHORS

    anchors = ", ".join(f"({a})" for a in PHRASE_ANCHORS)
    return f"""
WITH anchors(qid) AS (VALUES {anchors}),
docs AS (SELECT doc_id, text FROM documents),
toksl AS (SELECT doc_id, {TOK_SQL} AS toks FROM docs),
phr AS (SELECT a.qid, array_to_string(t.toks[1:{n_tokens}], ' ') AS phrase
        FROM anchors a JOIN toksl t ON t.doc_id = a.qid
        WHERE len(t.toks) > 0),
queries AS (SELECT qid, unnest(list_distinct(string_split(phrase, ' '))) AS term
            FROM phr),
tf AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM toksl) GROUP BY 1, 2),
dl AS (SELECT doc_id, CAST(len(toks) AS DOUBLE) AS dl FROM toksl),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n, sum(dl)/count(*) AS avgdl FROM dl),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY 1),
match AS (SELECT p.qid, t.doc_id FROM phr p JOIN toksl t
          ON (' ' || array_to_string(t.toks, ' ') || ' ')
             LIKE ('% ' || p.phrase || ' %')),
scored AS (
  SELECT q.qid, tf.doc_id,
         sum( ln(1.0 + (s.n - df.df + 0.5)/(df.df + 0.5))
              * tf.tf*(1.2+1.0)/(tf.tf + 1.2*(1.0-0.75+0.75*dl.dl/s.avgdl)) ) AS score
  FROM queries q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2),
ranked AS (SELECT m.qid, m.doc_id, sc.score,
                  row_number() OVER (PARTITION BY m.qid
                                     ORDER BY sc.score DESC, m.doc_id) AS rnk
           FROM match m JOIN scored sc ON sc.qid = m.qid AND sc.doc_id = m.doc_id)
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(FLOOR(score*1000000 + 0.5) AS BIGINT) AS score_e6
FROM ranked WHERE rnk <= {k}
"""


# shared corpus-side CTEs of the boolean/prefix/fuzzy oracles (same
# tf/df/dl/stats derivation as _bm25_cte_body, minus the frozen
# query battery — each op brings its own query CTE)
_FT_BASE_CTE = f"""docs AS (SELECT doc_id, text FROM documents),
tok AS (SELECT doc_id, unnest({TOK_SQL}) AS term FROM docs),
tf AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf FROM tok GROUP BY 1, 2),
dl AS (SELECT doc_id, CAST(len({TOK_SQL}) AS DOUBLE) AS dl FROM docs),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n, sum(dl)/count(*) AS avgdl FROM dl),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY 1)"""

# BM25 sum + rank + fixed-point projection over an (qid, term) CTE
# named `sq` — the scoring tail shared by the three clause oracles
_FT_SCORE_TAIL = """scored AS (
  SELECT q.qid, tf.doc_id,
         sum( ln(1.0 + (s.n - df.df + 0.5)/(df.df + 0.5))
              * tf.tf*(1.2+1.0)/(tf.tf + 1.2*(1.0-0.75+0.75*dl.dl/s.avgdl)) ) AS score
  FROM sq q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2)"""


def _ft_select(k: int, from_cte: str = "ranked") -> str:
    return f"""SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(FLOOR(score*1000000 + 0.5) AS BIGINT) AS score_e6
FROM {from_cte} WHERE rnk <= {k}"""


def _mlt_sql(k: int = 10, max_terms: int = 8) -> str:
    """More-like-this oracle, mirroring the engine exactly: anchor term
    tf from the tokenized anchor row, selection score = tf · BM25-idf
    over the FULL corpus, top ``max_terms`` by (score desc, term asc),
    then the shared BM25 OR-scoring tail over the selected terms with
    the anchor excluded and the (score desc, doc_id asc) rank."""
    from information_retrieval_images_ray.pipelines.flagship import PHRASE_ANCHORS

    anchors = ", ".join(f"({a}, {a})" for a in PHRASE_ANCHORS)
    return f"""
WITH anchors(qid, adoc) AS (VALUES {anchors}),
{_FT_BASE_CTE},
atf AS (SELECT a.qid, a.adoc, tf.term, tf.tf AS atf
        FROM anchors a JOIN tf ON tf.doc_id = a.adoc),
selc AS (SELECT atf.qid, atf.term,
                atf.atf * ln(1.0 + (s.n - df.df + 0.5)/(df.df + 0.5)) AS sel
         FROM atf JOIN df ON df.term = atf.term CROSS JOIN stats s),
sq AS (SELECT qid, term FROM (
         SELECT qid, term,
                row_number() OVER (PARTITION BY qid ORDER BY sel DESC, term) AS rn
         FROM selc) WHERE rn <= {max_terms}),
{_FT_SCORE_TAIL},
ranked AS (SELECT s.qid, s.doc_id, s.score,
                  row_number() OVER (PARTITION BY s.qid
                                     ORDER BY s.score DESC, s.doc_id) AS rnk
           FROM scored s JOIN anchors a ON a.qid = s.qid
           WHERE s.doc_id <> a.adoc)
{_ft_select(k)}"""


def _facet_sql() -> str:
    """Faceted-search oracle: the match set is every doc containing at
    least one of the qid's terms (OR semantics — the population under
    the ranked page); facet rows are its counts grouped by each
    docmeta column, one (qid, facet_field, facet_value) row each."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import BM25_QUERIES

    vals = []
    for q in BM25_QUERIES:
        for t in sorted(set(tokenize_simple(q["query"]))):
            vals.append(f"({q['qid']}, '{t}')")
    return f"""
WITH queries(qid, term) AS (VALUES {", ".join(vals)}),
{_FT_BASE_CTE},
m AS (SELECT DISTINCT q.qid, tf.doc_id
      FROM queries q JOIN tf ON tf.term = q.term),
j AS (SELECT m.qid, d.lang, d.source
      FROM m JOIN documents d ON d.doc_id = m.doc_id)
SELECT CAST(qid AS BIGINT) AS qid, facet_field, facet_value,
       count(*) AS n_docs FROM (
  SELECT qid, 'lang' AS facet_field, lang AS facet_value FROM j
  UNION ALL
  SELECT qid, 'source', source FROM j
) GROUP BY 1, 2, 3
ORDER BY qid, facet_field, facet_value"""


def _boolean_sql(k: int = 10) -> str:
    """Boolean-clause oracle: candidates must match EVERY must term
    (count of distinct matched must terms == the qid's must count —
    a df-0 must term like qid 5's 'zebra' is counted in nmust but can
    never be matched, emptying that qid) and NO must_not term; score =
    BM25 sum over the DISTINCT (must + should) terms present."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import BOOLEAN_QUERIES

    vals = []
    for q in BOOLEAN_QUERIES:
        for role, field in (("must", "must"), ("should", "should"), ("not", "must_not")):
            for t in sorted(set(tokenize_simple(q[field]))):
                vals.append(f"({q['qid']}, '{t}', '{role}')")
    return f"""
WITH bq(qid, term, role) AS (VALUES {", ".join(vals)}),
{_FT_BASE_CTE},
sq AS (SELECT DISTINCT qid, term FROM bq WHERE role IN ('must', 'should')),
{_FT_SCORE_TAIL},
nmust AS (SELECT qid, count(DISTINCT term) AS n FROM bq WHERE role = 'must' GROUP BY 1),
mhit AS (SELECT b.qid, tf.doc_id, count(DISTINCT b.term) AS c
         FROM bq b JOIN tf ON tf.term = b.term WHERE b.role = 'must' GROUP BY 1, 2),
ex AS (SELECT DISTINCT b.qid, tf.doc_id
       FROM bq b JOIN tf ON tf.term = b.term WHERE b.role = 'not'),
cand AS (SELECT s.qid, s.doc_id, s.score FROM scored s
         LEFT JOIN nmust nm ON nm.qid = s.qid
         LEFT JOIN mhit mh ON mh.qid = s.qid AND mh.doc_id = s.doc_id
         WHERE coalesce(nm.n, 0) = coalesce(mh.c, 0)
           AND NOT EXISTS (SELECT 1 FROM ex
                           WHERE ex.qid = s.qid AND ex.doc_id = s.doc_id)),
ranked AS (SELECT qid, doc_id, score,
                  row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rnk
           FROM cand)
{_ft_select(k)}
"""


def _prefix_sql(k: int = 10) -> str:
    """Prefix oracle: expansions = distinct corpus terms LIKE 'pfx%',
    lexicographically-first max_expansions per qid (the reader's
    deterministic cap), OR-scored with per-term idf."""
    from information_retrieval_images_ray.pipelines.flagship import (
        PREFIX_MAX_EXPANSIONS, PREFIX_QUERIES)

    vals = ", ".join(f"({q['qid']}, '{q['prefix']}')" for q in PREFIX_QUERIES)
    return f"""
WITH pq(qid, pfx) AS (VALUES {vals}),
{_FT_BASE_CTE},
sq AS (SELECT qid, term FROM (
         SELECT p.qid, d.term,
                row_number() OVER (PARTITION BY p.qid ORDER BY d.term) AS rn
         FROM pq p JOIN df d ON d.term LIKE p.pfx || '%')
       WHERE rn <= {PREFIX_MAX_EXPANSIONS}),
{_FT_SCORE_TAIL},
ranked AS (SELECT qid, doc_id, score,
                  row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rnk
           FROM scored)
{_ft_select(k)}
"""


def _fuzzy_sql(k: int = 10) -> str:
    """Fuzzy oracle: expansions = distinct corpus terms within
    max_edits Levenshtein edits of the query word with the first char
    pinned (the reader's prefix_len=1 pruning), capped like prefix."""
    from information_retrieval_images_ray.pipelines.flagship import (
        FUZZY_MAX_EDITS, FUZZY_MAX_EXPANSIONS, FUZZY_QUERIES)

    vals = ", ".join(f"({q['qid']}, '{q['word']}')" for q in FUZZY_QUERIES)
    return f"""
WITH fq(qid, w) AS (VALUES {vals}),
{_FT_BASE_CTE},
sq AS (SELECT qid, term FROM (
         SELECT f.qid, d.term,
                row_number() OVER (PARTITION BY f.qid ORDER BY d.term) AS rn
         FROM fq f JOIN df d
           ON substr(d.term, 1, 1) = substr(f.w, 1, 1)
          AND levenshtein(d.term, f.w) <= {FUZZY_MAX_EDITS})
       WHERE rn <= {FUZZY_MAX_EXPANSIONS}),
{_FT_SCORE_TAIL},
ranked AS (SELECT qid, doc_id, score,
                  row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rnk
           FROM scored)
{_ft_select(k)}
"""


def _proximity_sql(k: int = 10) -> str:
    """Proximity oracle: a doc matches a qid iff one occurrence of
    EVERY query term fits in a `window`-token span (greatest chosen
    position - least <= window, positions from the ordered token
    stream); matches rank by the BM25 sum over the query terms (all
    present by construction). The per-qid EXISTS joins are generated
    per arity."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import PROXIMITY_QUERIES

    sq_vals, prox_parts = [], []
    for q in PROXIMITY_QUERIES:
        terms = sorted(set(tokenize_simple(q["terms"])))
        for t in terms:
            sq_vals.append(f"({q['qid']}, '{t}')")
        aliases = [f"p{i}" for i in range(len(terms))]
        joins = " ".join(
            f"JOIN pos {a} ON {a}.doc_id = p0.doc_id" for a in aliases[1:]
        )
        conds = " AND ".join(
            f"{a}.term = '{t}'" for a, t in zip(aliases, terms)
        )
        cols = ", ".join(f"{a}.i" for a in aliases)
        span = (
            f"greatest({cols}) - least({cols})" if len(aliases) > 1 else "0"
        )
        prox_parts.append(
            f"SELECT {q['qid']} AS qid, p0.doc_id AS doc_id FROM pos p0 {joins} "
            f"WHERE {conds} AND {span} <= {q['window']} GROUP BY 2"
        )
    return f"""
WITH sq(qid, term) AS (VALUES {", ".join(sq_vals)}),
{_FT_BASE_CTE},
toksl AS (SELECT doc_id, {TOK_SQL} AS ts FROM docs),
pos AS (SELECT doc_id, u.i AS i, ts[u.i] AS term
        FROM toksl CROSS JOIN LATERAL unnest(range(1, len(ts) + 1)) AS u(i)),
prox AS ({" UNION ALL ".join(prox_parts)}),
{_FT_SCORE_TAIL},
ranked AS (SELECT p.qid, p.doc_id, sc.score,
                  row_number() OVER (PARTITION BY p.qid
                                     ORDER BY sc.score DESC, p.doc_id) AS rnk
           FROM prox p JOIN scored sc ON sc.qid = p.qid AND sc.doc_id = p.doc_id)
{_ft_select(k)}
"""


def _spannear_sql(k: int = 10) -> str:
    """Ordered span-near oracle: a doc matches a qid iff occurrences
    p0 < p1 < ... < p_{n-1} of the query terms IN QUERY ORDER exist
    with p_{n-1} - p0 <= window; matches rank by the BM25 sum over the
    DISTINCT query terms. The per-qid joins carry the strict ordering
    chain — the only difference from the proximity oracle."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import SPANNEAR_QUERIES

    sq_vals, parts = [], []
    for q in SPANNEAR_QUERIES:
        ordered = tokenize_simple(q["terms"])  # order preserved
        for t in sorted(set(ordered)):
            sq_vals.append(f"({q['qid']}, '{t}')")
        aliases = [f"p{i}" for i in range(len(ordered))]
        joins = " ".join(
            f"JOIN pos {a} ON {a}.doc_id = p0.doc_id" for a in aliases[1:]
        )
        conds = " AND ".join(
            f"{a}.term = '{t}'" for a, t in zip(aliases, ordered)
        )
        chain = " AND ".join(
            f"{aliases[i]}.i < {aliases[i + 1]}.i"
            for i in range(len(aliases) - 1)
        )
        span = (
            f"{aliases[-1]}.i - p0.i" if len(aliases) > 1 else "0"
        )
        where = conds if not chain else f"{conds} AND {chain}"
        parts.append(
            f"SELECT {q['qid']} AS qid, p0.doc_id AS doc_id FROM pos p0 {joins} "
            f"WHERE {where} AND {span} <= {q['window']} GROUP BY 2"
        )
    return f"""
WITH sq(qid, term) AS (VALUES {", ".join(sq_vals)}),
{_FT_BASE_CTE},
toksl AS (SELECT doc_id, {TOK_SQL} AS ts FROM docs),
pos AS (SELECT doc_id, u.i AS i, ts[u.i] AS term
        FROM toksl CROSS JOIN LATERAL unnest(range(1, len(ts) + 1)) AS u(i)),
near AS ({" UNION ALL ".join(parts)}),
{_FT_SCORE_TAIL},
ranked AS (SELECT p.qid, p.doc_id, sc.score,
                  row_number() OVER (PARTITION BY p.qid
                                     ORDER BY sc.score DESC, p.doc_id) AS rnk
           FROM near p JOIN scored sc ON sc.qid = p.qid AND sc.doc_id = p.doc_id)
{_ft_select(k)}
"""


def _recall_sql() -> str:
    """Recall@10: fraction of the conjunctive-relevant set retrieved
    in the top-10 page (same relevance CTEs as MAP/MRR)."""
    return f"""
WITH {_bm25_cte_body()},
nq AS (SELECT qid, count(DISTINCT term) AS nt FROM queries GROUP BY 1),
relc AS (SELECT q.qid, tf.doc_id, count(DISTINCT tf.term) AS c
         FROM queries q JOIN tf ON tf.term = q.term GROUP BY 1, 2),
rel AS (SELECT relc.qid, relc.doc_id FROM relc JOIN nq ON nq.qid = relc.qid
        WHERE relc.c = nq.nt),
rc AS (SELECT qid, count(*) AS n_rel FROM rel GROUP BY 1),
hits AS (SELECT qid, doc_id FROM ranked WHERE rnk <= 10),
hc AS (SELECT h.qid, count(*) AS n_hit
       FROM hits h JOIN rel r ON r.qid = h.qid AND r.doc_id = h.doc_id
       GROUP BY 1),
allq AS (SELECT DISTINCT qid FROM queries)
SELECT CAST(allq.qid AS BIGINT) AS qid,
       CAST(coalesce(rc.n_rel, 0) AS BIGINT) AS n_rel,
       CAST(coalesce(hc.n_hit, 0) AS BIGINT) AS n_hit,
       CAST(FLOOR((CASE WHEN coalesce(rc.n_rel, 0) = 0 THEN 0.0
                   ELSE coalesce(hc.n_hit, 0) * 1.0 / rc.n_rel END)
                  * 1000000 + 0.5) AS BIGINT) AS recall_e6
FROM allq LEFT JOIN rc ON rc.qid = allq.qid
LEFT JOIN hc ON hc.qid = allq.qid
"""


_DOC_ENTROPY_SQL = f"""
WITH docs AS (SELECT doc_id, text FROM documents),
tok AS (SELECT doc_id, unnest({TOK_SQL}) AS term FROM docs),
tf AS (SELECT doc_id, term, count(*) AS c FROM tok GROUP BY 1, 2),
nt AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
              count(*) AS nd FROM tf GROUP BY 1),
con AS (SELECT tf.doc_id,
               CAST(FLOOR((tf.c * 1.0 / nt.n) * log2(nt.n * 1.0 / tf.c)
                          * 1000000000000 + 0.5) AS BIGINT) AS e12
        FROM tf JOIN nt USING (doc_id)),
s AS (SELECT doc_id, sum(e12) AS e12 FROM con GROUP BY 1)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       CAST(coalesce(nt.n, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(nt.nd, 0) AS BIGINT) AS distinct_terms,
       coalesce(CAST(FLOOR(s.e12 / 1000000.0 + 0.5) AS BIGINT),
                0) AS entropy_e6
FROM docs d LEFT JOIN nt ON nt.doc_id = d.doc_id
LEFT JOIN s ON s.doc_id = d.doc_id
"""

_SOURCE_KL_SQL = f"""
WITH tok AS (SELECT source, unnest({TOK_SQL}) AS term FROM documents),
st AS (SELECT source, term, CAST(count(*) AS BIGINT) AS n
       FROM tok GROUP BY 1, 2),
ct AS (SELECT term, sum(n) AS nc FROM st GROUP BY 1),
ns AS (SELECT source, sum(n) AS ns, count(*) AS n_terms
       FROM st GROUP BY 1),
tot AS (SELECT sum(n) AS ncorp FROM st),
con AS (SELECT st.source,
               CAST(FLOOR((st.n * 1.0 / ns.ns)
                          * ln((st.n * 1.0 * tot.ncorp) / (ns.ns * ct.nc))
                          * 1000000000000 + 0.5) AS BIGINT) AS e12
        FROM st JOIN ns USING (source) JOIN ct USING (term)
        CROSS JOIN tot),
kl AS (SELECT source, sum(e12) AS e12 FROM con GROUP BY 1)
SELECT ns.source, CAST(ns.n_terms AS BIGINT) AS n_terms,
       CAST(ns.ns AS BIGINT) AS n_tokens,
       CAST(FLOOR(kl.e12 / 1000000.0 + 0.5) AS BIGINT) AS kl_e6
FROM ns JOIN kl USING (source)
"""


_TFIDF_PAIRS_SQL = f"""
WITH tok AS (SELECT doc_id, unnest({TOK_SQL}) AS term FROM documents),
tft AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
        FROM tok GROUP BY 1, 2),
dfv AS (SELECT term, count(*) AS df FROM tft GROUP BY 1),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
w AS (SELECT tft.doc_id, tft.term, tft.tf * ln(nn.n / dfv.df) AS w
      FROM tft JOIN dfv USING (term) CROSS JOIN nn
      WHERE dfv.df BETWEEN 2 AND 50),
nrm AS (SELECT doc_id,
               sum(CAST(FLOOR(w * w * 1000000 + 0.5) AS BIGINT)) AS n2
        FROM w GROUP BY 1),
dotv AS (SELECT a.doc_id AS da, b.doc_id AS db,
                sum(CAST(FLOOR(a.w * b.w * 1000000 + 0.5) AS BIGINT)) AS dot_e6,
                count(*) AS common
         FROM w a JOIN w b ON b.term = a.term AND b.doc_id > a.doc_id
         GROUP BY 1, 2),
cosv AS (SELECT da, db, common,
                CAST(FLOOR(dot_e6 / sqrt(CAST(na.n2 AS DOUBLE)
                                         * CAST(nb.n2 AS DOUBLE))
                           * 1000000 + 0.5) AS BIGINT) AS cos_e6
         FROM dotv JOIN nrm na ON na.doc_id = da
         JOIN nrm nb ON nb.doc_id = db)
SELECT CAST(da AS BIGINT) AS doc_a, CAST(db AS BIGINT) AS doc_b,
       CAST(common AS BIGINT) AS common, cos_e6
FROM cosv WHERE cos_e6 >= 100000
"""


_HLL_BY_LANG_SQL = f"""
WITH terms AS (SELECT DISTINCT lang, unnest({TOK_SQL}) AS term FROM documents),
h AS (SELECT lang, CAST(concat('0x', substr(md5(term), 1, 16)) AS UBIGINT) AS hv
      FROM terms),
p AS (SELECT lang, hv >> 58 AS bucket,
             hv & ((1::UBIGINT << 58) - 1) AS rest FROM h),
reg AS (SELECT lang, CAST(bucket AS BIGINT) AS bucket,
               max(CASE WHEN rest = 0 THEN 59
                        ELSE 58 - length(bin(rest)) + 1 END) AS reg
        FROM p GROUP BY 1, 2),
s AS (SELECT lang, count(*) AS nb,
             sum(CAST(1::BIGINT << (63 - reg) AS HUGEINT)) AS s_obs
      FROM reg GROUP BY 1),
tot AS (SELECT lang, nb,
               s_obs + CAST(64 - nb AS HUGEINT)
                       * CAST(9223372036854775808 AS HUGEINT) AS s_int
        FROM s),
ex AS (SELECT lang, count(*) AS exact FROM terms GROUP BY 1)
SELECT tot.lang, CAST(nb AS BIGINT) AS n_buckets_hit,
       CAST(FLOOR(0.709 * 64 * 64 * 9223372036854775808.0
                  / CAST(s_int AS DOUBLE) * 1000000 + 0.5) AS BIGINT) AS est_e6,
       CAST(ex.exact AS BIGINT) AS exact_distinct
FROM tot JOIN ex ON ex.lang = tot.lang
"""


def _snippet_sql(k: int = 5, window: int = 8) -> str:
    """Snippet oracle: for each battery hit (top-k of the shared BM25
    CTE), candidate snippet starts are the query terms' 0-based token
    positions; the best window [s, s+window-1] maximizes distinct
    query terms inside, ties leftmost; snippet text = the window's
    tokens joined (list slice is 1-based inclusive, hence s+1..s+w)."""
    return f"""
WITH {_bm25_cte_body()},
hits AS (SELECT qid, doc_id FROM ranked WHERE rnk <= {k}),
toksl AS (SELECT doc_id, {TOK_SQL} AS ts FROM docs
          WHERE doc_id IN (SELECT doc_id FROM hits)),
pos AS (SELECT doc_id, u.i - 1 AS pos, ts[u.i] AS term
        FROM toksl CROSS JOIN LATERAL unnest(range(1, len(ts) + 1)) AS u(i)),
occ AS (SELECT h.qid, h.doc_id, p.term, p.pos
        FROM hits h JOIN queries q ON q.qid = h.qid
        JOIN pos p ON p.doc_id = h.doc_id AND p.term = q.term),
cand AS (SELECT DISTINCT qid, doc_id, pos AS s FROM occ),
wnd AS (SELECT c.qid, c.doc_id, c.s, count(DISTINCT o.term) AS n_match
        FROM cand c JOIN occ o ON o.qid = c.qid AND o.doc_id = c.doc_id
                                AND o.pos >= c.s AND o.pos < c.s + {window}
        GROUP BY 1, 2, 3),
best AS (SELECT qid, doc_id, s, n_match FROM (
           SELECT qid, doc_id, s, n_match,
                  row_number() OVER (PARTITION BY qid, doc_id
                                     ORDER BY n_match DESC, s) AS rn
           FROM wnd) WHERE rn = 1)
SELECT CAST(b.qid AS BIGINT) AS qid, b.doc_id, b.s AS snip_start, b.n_match,
       array_to_string(t.ts[b.s + 1 : b.s + {window}], ' ') AS snippet
FROM best b JOIN toksl t ON t.doc_id = b.doc_id
ORDER BY b.qid, b.doc_id"""


def _hybrid_rrf_sql(n_each: int = 20, k0: int = 60) -> str:
    """RRF fusion of the BM25 battery (top-n_each from the shared CTE)
    and brute-force cosine top-n_each (anchor vector = embedding of
    vec_id == qid): rrf = coalesce(1/(k0+r_lex), 0) +
    coalesce(1/(k0+r_vec), 0), re-ranked (rrf desc, doc_id)."""
    from information_retrieval_images_ray.pipelines.flagship import BM25_QUERIES

    qids = ", ".join(str(q["qid"]) for q in BM25_QUERIES)
    return f"""
WITH {_bm25_cte_body()},
vq AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
       FROM embeddings WHERE vec_id IN ({qids})),
ve AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
vscored AS (SELECT vq.qid, ve.vec_id AS doc_id,
                   list_cosine_similarity(ve.emb, vq.qe) AS sim
            FROM vq CROSS JOIN ve),
vranked AS (SELECT qid, doc_id,
                   row_number() OVER (PARTITION BY qid ORDER BY sim DESC, doc_id) AS rnk
            FROM vscored),
tb AS (SELECT qid, doc_id, rnk FROM ranked WHERE rnk <= {n_each}),
vb AS (SELECT qid, doc_id, rnk FROM vranked WHERE rnk <= {n_each}),
ids AS (SELECT qid, doc_id FROM tb UNION SELECT qid, doc_id FROM vb),
fused AS (SELECT i.qid, i.doc_id,
                 coalesce(1.0/({k0} + tb.rnk), 0.0)
               + coalesce(1.0/({k0} + vb.rnk), 0.0) AS rrf
          FROM ids i
          LEFT JOIN tb ON tb.qid = i.qid AND tb.doc_id = i.doc_id
          LEFT JOIN vb ON vb.qid = i.qid AND vb.doc_id = i.doc_id),
rr AS (SELECT qid, doc_id, rrf,
              row_number() OVER (PARTITION BY qid ORDER BY rrf DESC, doc_id) AS rnk
       FROM fused)
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(FLOOR(rrf*1000000 + 0.5) AS BIGINT) AS rrf_e6
FROM rr WHERE rnk <= 10
"""


def _map_at_k_sql() -> str:
    """AP@10 per query: relevance = docs containing ALL query terms;
    precision accumulated at each relevant rank; denominator
    min(n_rel, 10) (reference MAP.py:1-18 semantics)."""
    return f"""
WITH {_bm25_cte_body()},
nq AS (SELECT qid, count(DISTINCT term) AS nt FROM queries GROUP BY 1),
relc AS (SELECT q.qid, tf.doc_id, count(DISTINCT tf.term) AS c
         FROM queries q JOIN tf ON tf.term = q.term GROUP BY 1, 2),
rel AS (SELECT relc.qid, relc.doc_id FROM relc JOIN nq ON nq.qid = relc.qid
        WHERE relc.c = nq.nt),
nrel AS (SELECT qid, count(*) AS n_rel FROM rel GROUP BY 1),
hits AS (SELECT qid, rnk, doc_id FROM ranked WHERE rnk <= 10),
flag AS (SELECT h.qid, h.rnk,
                CASE WHEN r.doc_id IS NOT NULL THEN 1 ELSE 0 END AS is_rel
         FROM hits h LEFT JOIN rel r ON r.qid = h.qid AND r.doc_id = h.doc_id),
prec AS (SELECT qid, rnk, is_rel,
                sum(is_rel) OVER (PARTITION BY qid ORDER BY rnk) * 1.0 / rnk AS p_at
         FROM flag),
ap AS (SELECT qid, sum(CASE WHEN is_rel = 1 THEN p_at ELSE 0 END) AS ap_sum
       FROM prec GROUP BY 1),
allq AS (SELECT DISTINCT qid FROM queries)
SELECT CAST(allq.qid AS BIGINT) AS qid,
       CAST(coalesce(nrel.n_rel, 0) AS BIGINT) AS n_rel,
       CAST(FLOOR((CASE WHEN coalesce(least(nrel.n_rel, 10), 0) > 0
             THEN coalesce(ap.ap_sum, 0) / least(nrel.n_rel, 10)
             ELSE 0.0 END) * 1000000 + 0.5) AS BIGINT) AS ap_e6
FROM allq
LEFT JOIN nrel ON nrel.qid = allq.qid
LEFT JOIN ap ON ap.qid = allq.qid
"""


def _mrr_sql() -> str:
    """MRR@10: reciprocal rank of the first conjunctive-relevant hit
    (same relevance CTEs as MAP; 0 when no relevant hit in the page)."""
    return f"""
WITH {_bm25_cte_body()},
nq AS (SELECT qid, count(DISTINCT term) AS nt FROM queries GROUP BY 1),
relc AS (SELECT q.qid, tf.doc_id, count(DISTINCT tf.term) AS c
         FROM queries q JOIN tf ON tf.term = q.term GROUP BY 1, 2),
rel AS (SELECT relc.qid, relc.doc_id FROM relc JOIN nq ON nq.qid = relc.qid
        WHERE relc.c = nq.nt),
hits AS (SELECT qid, rnk, doc_id FROM ranked WHERE rnk <= 10),
fr AS (SELECT h.qid, min(h.rnk) AS frr
       FROM hits h JOIN rel r ON r.qid = h.qid AND r.doc_id = h.doc_id
       GROUP BY 1),
allq AS (SELECT DISTINCT qid FROM queries)
SELECT CAST(allq.qid AS BIGINT) AS qid,
       CAST(coalesce(fr.frr, 0) AS BIGINT) AS first_rel_rank,
       CAST(FLOOR((CASE WHEN fr.frr IS NULL THEN 0.0
                   ELSE 1.0 / fr.frr END) * 1000000 + 0.5) AS BIGINT) AS rr_e6
FROM allq LEFT JOIN fr ON fr.qid = allq.qid
"""


def _overlap_topk_sql() -> str:
    """overlap@10 between the BM25 ranking and a tf-only ranking
    (reference evaluate_top_n_similarity, post_test_score.py:34-79)."""
    return f"""
WITH {_bm25_cte_body()},
tfq AS (SELECT q.qid, tf.doc_id, sum(tf.tf) AS tfsum
        FROM queries q JOIN tf ON tf.term = q.term GROUP BY 1, 2),
tfr AS (SELECT qid, doc_id,
               row_number() OVER (PARTITION BY qid ORDER BY tfsum DESC, doc_id) AS rnk
        FROM tfq),
a AS (SELECT qid, doc_id FROM ranked WHERE rnk <= 10),
b AS (SELECT qid, doc_id FROM tfr WHERE rnk <= 10),
c AS (SELECT a.qid, count(*) AS common
      FROM a JOIN b ON a.qid = b.qid AND a.doc_id = b.doc_id GROUP BY 1),
allq AS (SELECT DISTINCT qid FROM queries)
SELECT CAST(allq.qid AS BIGINT) AS qid,
       CAST(coalesce(c.common, 0) AS BIGINT) AS common,
       CAST(FLOOR(coalesce(c.common, 0) * 1.0 / 10 * 1000000 + 0.5) AS BIGINT) AS overlap_e6
FROM allq LEFT JOIN c ON c.qid = allq.qid
"""


def _ndcg_sql() -> str:
    """nDCG@10 with grade = count of distinct query terms contained;
    ideal DCG over the whole corpus's grade distribution."""
    return f"""
WITH {_bm25_cte_body()},
relc AS (SELECT q.qid, tf.doc_id, count(DISTINCT tf.term) AS g
         FROM queries q JOIN tf ON tf.term = q.term GROUP BY 1, 2),
hits AS (SELECT qid, rnk, doc_id FROM ranked WHERE rnk <= 10),
dcg AS (SELECT h.qid,
               sum((pow(2, coalesce(r.g, 0)) - 1.0) / log2(h.rnk + 1.0)) AS dcg
        FROM hits h LEFT JOIN relc r ON r.qid = h.qid AND r.doc_id = h.doc_id
        GROUP BY 1),
ideal AS (SELECT qid, g,
                 row_number() OVER (PARTITION BY qid ORDER BY g DESC, doc_id) AS irnk
          FROM relc),
idcg AS (SELECT qid, sum((pow(2, g) - 1.0) / log2(irnk + 1.0)) AS idcg
         FROM ideal WHERE irnk <= 10 GROUP BY 1),
ng AS (SELECT qid, count(*) AS n_graded FROM relc GROUP BY 1),
allq AS (SELECT DISTINCT qid FROM queries)
SELECT CAST(allq.qid AS BIGINT) AS qid,
       CAST(coalesce(ng.n_graded, 0) AS BIGINT) AS n_graded,
       CAST(FLOOR((CASE WHEN coalesce(idcg.idcg, 0) > 0
             THEN coalesce(dcg.dcg, 0) / idcg.idcg ELSE 0.0 END)
            * 1000000 + 0.5) AS BIGINT) AS ndcg_e6
FROM allq
LEFT JOIN ng ON ng.qid = allq.qid
LEFT JOIN dcg ON dcg.qid = allq.qid
LEFT JOIN idcg ON idcg.qid = allq.qid
"""


def _token_prf_sql() -> str:
    return f"""
WITH t AS (SELECT doc_id,
    list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+')) AS ref,
    list_distinct(regexp_extract_all(lower(substr(text, 1, length(text) // 2)), '[a-z0-9]+')) AS cand
  FROM documents),
m AS (SELECT doc_id, len(ref) AS nref, len(cand) AS ncand,
             len(list_filter(cand, x -> list_contains(ref, x))) AS tp FROM t),
pr AS (SELECT doc_id,
              CASE WHEN ncand = 0 THEN 0.0 ELSE tp * 1.0 / ncand END AS p,
              CASE WHEN nref = 0 THEN 0.0 ELSE tp * 1.0 / nref END AS r
       FROM m)
SELECT doc_id,
       CAST(FLOOR(p * 1000000 + 0.5) AS BIGINT) AS precision_e6,
       CAST(FLOOR(r * 1000000 + 0.5) AS BIGINT) AS recall_e6,
       CAST(FLOOR((CASE WHEN p + r = 0 THEN 0.0 ELSE 2 * p * r / (p + r) END)
            * 1000000 + 0.5) AS BIGINT) AS f1_e6
FROM pr
"""


_KNN_SQL = """
WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
           FROM embeddings WHERE vec_id IN (0, 1, 2)),
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings),
scored AS (SELECT q.qid, e.vec_id, list_cosine_similarity(e.emb, q.qe) AS sim
           FROM q CROSS JOIN e),
ranked AS (SELECT qid, vec_id, sim,
                  row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rnk
           FROM scored)
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(vec_id AS BIGINT) AS vec_id,
       CAST(FLOOR(sim*1000000 + 0.5) AS BIGINT) AS sim_e6
FROM ranked WHERE rnk <= 10
"""

# q_ivf_filtered: same exhaustive-probe setup (nprobe == nlist makes
# IVF exact), but candidates restricted to label = 3 BEFORE scoring —
# queries still come from the unfiltered table (vec_id 0, 1, 2).
_KNN_FILTERED_SQL = _KNN_SQL.replace(
    "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)",
    "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb"
    " FROM embeddings WHERE label = 3)",
)

# q_ivf_deleted / q_ivf_compacted: vec_id % 7 == 0 is tombstoned
# (then physically dropped by compact) — candidates exclude them,
# queries still come from the unfiltered table (a deleted vector
# remains a perfectly good query).
_KNN_DELETED_SQL = _KNN_SQL.replace(
    "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)",
    "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb"
    " FROM embeddings WHERE vec_id % 7 <> 0)",
)
assert _KNN_DELETED_SQL != _KNN_SQL  # replace() must have matched
assert _KNN_FILTERED_SQL != _KNN_SQL


def _minhash_sql() -> str:
    """Exact mirror of minhash_near_dups(threshold=0.5, num_perm=64,
    bands=16, shingle_n=3, max_group=1024): md5-prefix shingle hashes
    (hashing.md5_u64), the numpy-uint64 wrap (mod 2^64) inside the
    permutation h_i(x) = (a_i*x + b_i) mod p — reproduced in HUGEINT —
    banding on the 4-value signature chunks, the hot-bucket cap, and
    the signature-agreement Jaccard estimate. Coefficients are read
    straight off MinHashStage so they can never drift."""
    from information_retrieval_images_ray.pipelines.dedup import (
        _MERSENNE,
        MinHashStage,
    )

    st = MinHashStage(num_perm=64, shingle_n=3)
    perms = ", ".join(
        f"({i}, {int(a)}, {int(b)})" for i, (a, b) in enumerate(zip(st.a, st.b))
    )
    p = int(_MERSENNE)
    w = 1 << 64
    return f"""
WITH perms(i, a, b) AS (VALUES {perms}),
toks AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
sh AS (SELECT DISTINCT doc_id, array_to_string(ts[u.i : u.i + 2], ' ') AS s
       FROM toks CROSS JOIN LATERAL unnest(range(1, greatest(len(ts) - 1, 1))) AS u(i)),
xh AS (SELECT doc_id, CAST(concat('0x', substr(md5(s), 1, 16)) AS UBIGINT) % {p} AS x
       FROM sh),
sigj AS (SELECT doc_id, p.i AS perm,
          min(CAST(((CAST(p.a AS HUGEINT) * x) % {w} + p.b) % {w} % {p} AS UBIGINT)) AS v
         FROM xh CROSS JOIN perms p GROUP BY 1, 2),
-- docs with no shingles (fewer than 3 tokens) keep the sentinel
-- signature value p, exactly MinHashStage's empty-set default
sig AS (SELECT d.doc_id, p.i AS perm, coalesce(s.v, CAST({p} AS UBIGINT)) AS v
        FROM (SELECT doc_id FROM documents) d CROSS JOIN perms p
        LEFT JOIN sigj s ON s.doc_id = d.doc_id AND s.perm = p.i),
bands AS (SELECT doc_id, perm // 4 AS band_id, list(v ORDER BY perm) AS chunk
          FROM sig GROUP BY 1, 2),
elig AS (SELECT band_id, chunk FROM bands GROUP BY 1, 2 HAVING count(*) <= 1024),
cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
         FROM bands a
         JOIN bands b ON a.band_id = b.band_id AND a.chunk = b.chunk
              AND a.doc_id < b.doc_id
         JOIN elig e ON e.band_id = a.band_id AND e.chunk = a.chunk),
est AS (SELECT c.doc_a, c.doc_b,
               avg(CASE WHEN sa.v = sb.v THEN 1.0 ELSE 0.0 END) AS j
        FROM cand c
        JOIN sig sa ON sa.doc_id = c.doc_a
        JOIN sig sb ON sb.doc_id = c.doc_b AND sb.perm = sa.perm
        GROUP BY 1, 2)
SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b,
       CAST(FLOOR(j * 1000000 + 0.5) AS BIGINT) AS jaccard_e6
FROM est WHERE j >= 0.5
"""


def _minhash_gate_sql(train: int = 80, val: int = 10) -> str:
    """Mirror of ``dedup.minhash_gate_on_split(threshold=0.5)``: the
    md5(doc_id)%100 split assigns sides (store < train, new batch
    >= train+val, val docs absent from both), signatures are the same
    HUGEINT-wrap minhash as _minhash_sql, candidates are CROSS-SIDE
    band collisions only, the hot-bucket cap counts the bucket's
    gate-side membership (val docs never enter a bucket), and the
    agreement estimate is identical."""
    from information_retrieval_images_ray.pipelines.dedup import (
        _MERSENNE,
        MinHashStage,
    )

    st = MinHashStage(num_perm=64, shingle_n=3)
    perms = ", ".join(
        f"({i}, {int(a)}, {int(b)})" for i, (a, b) in enumerate(zip(st.a, st.b))
    )
    p = int(_MERSENNE)
    w = 1 << 64
    cut = train + val
    return f"""
WITH perms(i, a, b) AS (VALUES {perms}),
split AS (SELECT doc_id,
           CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                AS UBIGINT) % 100 AS bkt
          FROM documents),
members AS (SELECT doc_id,
             CASE WHEN bkt < {train} THEN 0
                  WHEN bkt >= {cut} THEN 1 END AS is_new
            FROM split WHERE bkt < {train} OR bkt >= {cut}),
toks AS (SELECT d.doc_id, {TOK_SQL} AS ts
         FROM documents d JOIN members m ON m.doc_id = d.doc_id),
sh AS (SELECT DISTINCT doc_id, array_to_string(ts[u.i : u.i + 2], ' ') AS s
       FROM toks CROSS JOIN LATERAL unnest(range(1, greatest(len(ts) - 1, 1))) AS u(i)),
xh AS (SELECT doc_id, CAST(concat('0x', substr(md5(s), 1, 16)) AS UBIGINT) % {p} AS x
       FROM sh),
sigj AS (SELECT doc_id, p.i AS perm,
          min(CAST(((CAST(p.a AS HUGEINT) * x) % {w} + p.b) % {w} % {p} AS UBIGINT)) AS v
         FROM xh CROSS JOIN perms p GROUP BY 1, 2),
sig AS (SELECT m.doc_id, p.i AS perm, coalesce(s.v, CAST({p} AS UBIGINT)) AS v
        FROM members m CROSS JOIN perms p
        LEFT JOIN sigj s ON s.doc_id = m.doc_id AND s.perm = p.i),
bands AS (SELECT s.doc_id, perm // 4 AS band_id, m.is_new,
                 list(v ORDER BY perm) AS chunk
          FROM sig s JOIN members m ON m.doc_id = s.doc_id
          GROUP BY 1, 2, 3),
elig AS (SELECT band_id, chunk FROM bands GROUP BY 1, 2 HAVING count(*) <= 1024),
cand AS (SELECT DISTINCT a.doc_id AS doc_id, b.doc_id AS matched_doc
         FROM bands a
         JOIN bands b ON a.band_id = b.band_id AND a.chunk = b.chunk
              AND a.is_new = 1 AND b.is_new = 0
         JOIN elig e ON e.band_id = a.band_id AND e.chunk = a.chunk),
est AS (SELECT c.doc_id, c.matched_doc,
               avg(CASE WHEN sa.v = sb.v THEN 1.0 ELSE 0.0 END) AS j
        FROM cand c
        JOIN sig sa ON sa.doc_id = c.doc_id
        JOIN sig sb ON sb.doc_id = c.matched_doc AND sb.perm = sa.perm
        GROUP BY 1, 2)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(matched_doc AS BIGINT) AS matched_doc,
       CAST(FLOOR(j * 1000000 + 0.5) AS BIGINT) AS jaccard_e6
FROM est WHERE j >= 0.5
"""


def _simhash_sql() -> str:
    """Exact mirror of simhash_near_dups(max_hamming=3, max_group=1024):
    md5-prefix term hashes, per-bit tf-weighted sign sums (sums of
    int-valued doubles — numpy float64 and SQL BIGINT agree exactly),
    4x16-bit band blocking with the hot-bucket cap, exact Hamming."""
    return f"""
WITH toks AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
tf AS (SELECT doc_id, term, count(*) AS w
       FROM (SELECT doc_id, unnest(ts) AS term FROM toks) GROUP BY 1, 2),
th AS (SELECT doc_id, w,
              CAST(concat('0x', substr(md5(term), 1, 16)) AS UBIGINT) AS h
       FROM tf),
acc AS (SELECT doc_id, u.i AS bit,
         sum(CASE WHEN (h >> u.i) & 1 = 1 THEN w ELSE -w END) AS a
        FROM th CROSS JOIN unnest(range(0, 64)) AS u(i) GROUP BY 1, 2),
-- token-less docs fingerprint to 0 (all bits clear), like SimHashStage
bitset AS (SELECT d.doc_id, u.i AS bit,
            CASE WHEN coalesce(a.a, 0) > 0 THEN 1 ELSE 0 END AS s
           FROM (SELECT doc_id FROM documents) d
           CROSS JOIN unnest(range(0, 64)) AS u(i)
           LEFT JOIN acc a ON a.doc_id = d.doc_id AND a.bit = u.i),
band AS (SELECT doc_id, bit // 16 AS band_id,
          sum(s * (1 << CAST(bit % 16 AS INT))) AS bval
         FROM bitset GROUP BY 1, 2),
elig AS (SELECT band_id, bval FROM band GROUP BY 1, 2 HAVING count(*) <= 1024),
cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
         FROM band a
         JOIN band b ON a.band_id = b.band_id AND a.bval = b.bval
              AND a.doc_id < b.doc_id
         JOIN elig e ON e.band_id = a.band_id AND e.bval = a.bval),
ham AS (SELECT c.doc_a, c.doc_b, sum(CASE WHEN sa.s <> sb.s THEN 1 ELSE 0 END) AS h
        FROM cand c
        JOIN bitset sa ON sa.doc_id = c.doc_a
        JOIN bitset sb ON sb.doc_id = c.doc_b AND sb.bit = sa.bit
        GROUP BY 1, 2)
SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b,
       CAST(h AS BIGINT) AS hamming
FROM ham WHERE h <= 3
"""


def _langid_sql() -> str:
    """Exact mirror of LangIdStage: per-language stopword hit counts,
    argmax with alphabetical preference on ties (python's
    max(sorted(langs), key=score) keeps the FIRST maximal lang),
    'unknown' when every count is zero, confidence = hits/n with
    n = max(1, len(tokens))."""
    from information_retrieval_images_ray.pipelines.analysis import LANG_STOPWORDS

    langs = sorted(LANG_STOPWORDS)
    hit_cols = ",\n       ".join(
        "len(list_filter(ts, x -> x IN ({}))) AS h_{}".format(
            ", ".join(f"'{w}'" for w in sorted(set(LANG_STOPWORDS[lang]))), lang
        )
        for lang in langs
    )
    whens = "\n            ".join(
        "WHEN {} THEN '{}'".format(
            " AND ".join(f"h_{lang} >= h_{m}" for m in langs if m != lang), lang
        )
        for lang in langs
    )
    gmax = ", ".join(f"h_{lang}" for lang in langs)
    return f"""
WITH t AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
h AS (SELECT doc_id, greatest(len(ts), 1) AS n,
       {hit_cols}
      FROM t),
b AS (SELECT doc_id, n,
        CASE {whens} END AS bl,
        greatest({gmax}) AS bh
      FROM h)
SELECT doc_id,
       CASE WHEN bh = 0 THEN 'unknown' ELSE bl END AS pred_lang,
       CAST(FLOOR(bh * 1.0 / n * 1000000 + 0.5) AS BIGINT) AS confidence_e6
FROM b
"""


def _pii_sql() -> str:
    """PII oracle: per-class match counts on the original text, then
    the same sequential class-ordered redaction (nested regexp_replace
    with 'g') attested by length + sha256 prefix. Patterns are shared
    constants — ASCII-explicit so RE2 and Python `re` agree."""
    red = "text"
    for k in PII_ORDER:
        red = f"regexp_replace({red}, '{PII_PATTERNS[k]}', '<{k.upper()}>', 'g')"
    count_cols = ",\n       ".join(
        f"CAST(len(regexp_extract_all(text, '{PII_PATTERNS[k]}')) AS BIGINT) AS n_{k}"
        for k in PII_ORDER
    )
    total = " + ".join(
        f"len(regexp_extract_all(text, '{PII_PATTERNS[k]}'))" for k in PII_ORDER
    )
    return f"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       {count_cols},
       CAST({total} AS BIGINT) AS n_pii,
       CAST(length(red) AS BIGINT) AS red_len,
       substr(sha256(red), 1, 16) AS red_sha16
FROM (SELECT doc_id, text, {red} AS red FROM documents)
"""


def _autocomplete_sql(k: int = 5) -> str:
    """Autocomplete oracle: df-ranked (df desc, term asc) completions
    per prefix over the distinct-term df table."""
    from information_retrieval_images_ray.pipelines.analysis import (
        AUTOCOMPLETE_BATTERY,
    )

    vals = ", ".join(f"('{p}')" for p in AUTOCOMPLETE_BATTERY)
    return f"""
WITH tok AS (SELECT doc_id, unnest(list_distinct({TOK_SQL})) AS term FROM documents),
tf AS (SELECT term, count(*) AS df FROM tok GROUP BY 1),
p(pfx) AS (VALUES {vals}),
r AS (SELECT p.pfx AS prefix, t.term, t.df,
             row_number() OVER (PARTITION BY p.pfx
                                ORDER BY t.df DESC, t.term) AS rnk
      FROM p JOIN tf t ON t.term LIKE p.pfx || '%')
SELECT prefix, CAST(rnk AS BIGINT) AS "rank", term, CAST(df AS BIGINT) AS df
FROM r WHERE rnk <= {k}
"""


def _spell_sql(max_edits: int = 2, k: int = 3) -> str:
    """Spell-suggest oracle: DuckDB's unit-cost ``levenshtein`` over
    the distinct-term vocabulary, ranked (dist, df desc, term)."""
    from information_retrieval_images_ray.pipelines.analysis import SPELL_BATTERY

    vals = ", ".join(f"('{w}')" for w in SPELL_BATTERY)
    return f"""
WITH tok AS (SELECT doc_id, unnest(list_distinct({TOK_SQL})) AS term FROM documents),
tf AS (SELECT term, count(*) AS df FROM tok GROUP BY 1),
w(word) AS (VALUES {vals}),
c AS (SELECT w.word, t.term, t.df, levenshtein(w.word, t.term) AS dist
      FROM w CROSS JOIN tf t WHERE levenshtein(w.word, t.term) <= {max_edits}),
r AS (SELECT word, term, df, dist,
             row_number() OVER (PARTITION BY word
                                ORDER BY dist, df DESC, term) AS rnk
      FROM c)
SELECT word, CAST(rnk AS BIGINT) AS "rank", term,
       CAST(df AS BIGINT) AS df, CAST(dist AS BIGINT) AS dist
FROM r WHERE rnk <= {k}
"""


def _repetition_sql() -> str:
    """Gopher-repetition oracle: per-doc most-frequent n-gram counts
    (n=2,3,4) and distinct positions covered by >=2-occurrence
    5-grams, mirrored with per-doc LATERAL unnests; space-joined
    grams are injective because tokens are [a-z0-9]+."""

    def top_cte(g: int) -> str:
        return f"""
g{g} AS (SELECT doc_id, array_to_string(ts[u.i : u.i + {g - 1}], ' ') AS gm
         FROM base CROSS JOIN LATERAL
              unnest(range(1, greatest(n - {g} + 2, 1))) AS u(i)),
c{g} AS (SELECT doc_id, max(cnt) AS topc FROM
           (SELECT doc_id, gm, count(*) AS cnt FROM g{g} GROUP BY 1, 2)
         GROUP BY 1)"""

    return f"""
WITH base AS (SELECT doc_id, {TOK_SQL} AS ts, len({TOK_SQL}) AS n FROM documents),
{top_cte(2)},
{top_cte(3)},
{top_cte(4)},
g5 AS (SELECT doc_id, u.i AS s, array_to_string(ts[u.i : u.i + 4], ' ') AS gm
       FROM base CROSS JOIN LATERAL
            unnest(range(1, greatest(n - 3, 1))) AS u(i)),
d5 AS (SELECT doc_id, gm FROM
         (SELECT doc_id, gm, count(*) AS cnt FROM g5 GROUP BY 1, 2)
       WHERE cnt >= 2),
cov AS (SELECT DISTINCT g5.doc_id, g5.s + o.o AS p
        FROM g5 JOIN d5 USING (doc_id, gm)
        CROSS JOIN LATERAL unnest(range(0, 5)) AS o(o)),
nc AS (SELECT doc_id, count(*) AS covered FROM cov GROUP BY 1)
SELECT CAST(b.doc_id AS BIGINT) AS doc_id, CAST(b.n AS BIGINT) AS n_tokens,
  CAST(CASE WHEN b.n = 0 THEN 0 ELSE
    FLOOR(COALESCE(c2.topc, 0) * 2.0 / b.n * 1000000 + 0.5) END AS BIGINT) AS top2_frac_e6,
  CAST(CASE WHEN b.n = 0 THEN 0 ELSE
    FLOOR(COALESCE(c3.topc, 0) * 3.0 / b.n * 1000000 + 0.5) END AS BIGINT) AS top3_frac_e6,
  CAST(CASE WHEN b.n = 0 THEN 0 ELSE
    FLOOR(COALESCE(c4.topc, 0) * 4.0 / b.n * 1000000 + 0.5) END AS BIGINT) AS top4_frac_e6,
  CAST(CASE WHEN b.n = 0 THEN 0 ELSE
    FLOOR(COALESCE(nc.covered, 0) * 1.0 / b.n * 1000000 + 0.5) END AS BIGINT) AS dup5_frac_e6
FROM base b
LEFT JOIN c2 ON c2.doc_id = b.doc_id
LEFT JOIN c3 ON c3.doc_id = b.doc_id
LEFT JOIN c4 ON c4.doc_id = b.doc_id
LEFT JOIN nc ON nc.doc_id = b.doc_id
"""


# HLL register CTE: md5-u64 term hash -> top-6-bit bucket, max rho of
# the 58 remaining bits; len(bin(x)) is DuckDB's exact bit_length.
_HLL_REG_CTE = f"""terms AS (SELECT DISTINCT unnest({TOK_SQL}) AS term FROM documents),
h AS (SELECT CAST(concat('0x', substr(md5(term), 1, 16)) AS UBIGINT) AS hv FROM terms),
p AS (SELECT hv >> 58 AS bucket, hv & ((1::UBIGINT << 58) - 1) AS rest FROM h),
reg AS (SELECT CAST(bucket AS BIGINT) AS bucket,
               max(CASE WHEN rest = 0 THEN 59
                        ELSE 58 - length(bin(rest)) + 1 END) AS reg
        FROM p GROUP BY 1)"""

_HLL_REG_SQL = f"""
WITH {_HLL_REG_CTE}
SELECT bucket, CAST(reg AS BIGINT) AS reg FROM reg
"""


def _cms_ctes() -> str:
    """Shared count-min CTE chain: per-term corpus occurrence counts,
    the depth row ids, the row-salted md5-prefix bucket hash (the
    exact ``md5_u64(f"{{r}}:{{term}}") % width`` the engine computes),
    and the summed registers."""
    from information_retrieval_images_ray.pipelines.sketches import (
        CMS_DEPTH,
        CMS_WIDTH,
    )

    rows = ", ".join(f"({r})" for r in range(CMS_DEPTH))
    return f"""tok AS (SELECT unnest({TOK_SQL}) AS term FROM documents),
tc AS (SELECT term, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY 1),
rws(r) AS (VALUES {rows}),
h AS (SELECT r, CAST(CAST(concat('0x', substr(md5(concat(r, ':', term)), 1, 16))
                     AS UBIGINT) % {CMS_WIDTH} AS BIGINT) AS bucket, term, n
      FROM tc CROSS JOIN rws),
reg AS (SELECT r, bucket, sum(n) AS reg FROM h GROUP BY 1, 2)"""


def _cms_reg_sql() -> str:
    return f"""
WITH {_cms_ctes()}
SELECT CAST(r AS BIGINT) AS "row", bucket, CAST(reg AS BIGINT) AS reg FROM reg
"""


def _cms_hh_sql() -> str:
    """Heavy-hitter oracle: per frozen candidate, est = min over the
    depth rows of its register cell (missing cell = 0 — can only
    happen for an absent term whose cells took no collision), exact =
    its corpus occurrence count."""
    from information_retrieval_images_ray.pipelines.sketches import (
        CMS_CANDIDATES,
        CMS_DEPTH,
        CMS_WIDTH,
    )

    cand = ", ".join(f"('{t}')" for t in sorted(CMS_CANDIDATES))
    return f"""
WITH {_cms_ctes()},
cand(term) AS (VALUES {cand}),
ch AS (SELECT c.term, w.r,
              CAST(CAST(concat('0x', substr(md5(concat(w.r, ':', c.term)), 1, 16))
                   AS UBIGINT) % {CMS_WIDTH} AS BIGINT) AS bucket
       FROM cand c CROSS JOIN rws w),
est AS (SELECT ch.term, min(coalesce(reg.reg, 0)) AS est
        FROM ch LEFT JOIN reg ON reg.r = ch.r AND reg.bucket = ch.bucket
        GROUP BY 1)
SELECT e.term, CAST(e.est AS BIGINT) AS est_count,
       CAST(coalesce(tc.n, 0) AS BIGINT) AS exact_count
FROM est e LEFT JOIN tc ON tc.term = e.term
"""


def _bpe_pairs_sql() -> str:
    """BPE pair-count oracle: every token's adjacent 2-char substrings
    via an unnest over in-word positions, summed per pair — the exact
    integer table the first BPE merge iteration maximizes over."""
    return f"""
WITH w AS (SELECT unnest({TOK_SQL}) AS w FROM documents),
pos AS (SELECT w, unnest(range(1, length(w))) AS i FROM w)
SELECT substr(w, CAST(i AS INTEGER), 2) AS pair,
       CAST(count(*) AS BIGINT) AS n
FROM pos GROUP BY 1
"""


def _token_counts_sql() -> str:
    """Token-count oracle: the shared ASCII-explicit patterns run
    identically under RE2; the BPE pattern's leading apostrophe is
    SQL-escaped by doubling."""
    from information_retrieval_images_ray.pipelines.analysis import (
        BPE_PATTERN,
        WS_PATTERN,
    )

    bpe = BPE_PATTERN.replace("'", "''")
    ws = WS_PATTERN.replace("'", "''")
    return f"""
WITH c AS (SELECT doc_id,
       len(regexp_extract_all(lower(text), '{ws}')) AS n_ws,
       len(regexp_extract_all(lower(text), '{bpe}')) AS n_bpe
       FROM documents)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_ws AS BIGINT) AS n_ws_tokens,
       CAST(n_bpe AS BIGINT) AS n_bpe_tokens,
       CAST(CASE WHEN n_ws = 0 THEN 0
            ELSE FLOOR(n_bpe * 1.0 / n_ws * 1000000 + 0.5) END AS BIGINT)
         AS bpe_per_ws_e6
FROM c
"""


def _wildcard_sql(k: int = 10) -> str:
    """Wildcard oracle: expansions = distinct corpus terms LIKE the
    pattern with ``*`` -> ``%`` (patterns are [a-z0-9*], so no LIKE
    metachar escaping needed), lexicographically-first
    max_expansions per qid (the reader's deterministic cap), then the
    shared OR-of-terms BM25 tail."""
    from information_retrieval_images_ray.pipelines.flagship import (
        WILDCARD_MAX_EXPANSIONS,
        WILDCARD_QUERIES,
    )

    vals = ", ".join(
        f"({q['qid']}, '{q['pattern'].replace('*', '%')}')"
        for q in WILDCARD_QUERIES
    )
    return f"""
WITH wq(qid, pat) AS (VALUES {vals}),
{_FT_BASE_CTE},
sq AS (SELECT qid, term FROM (
         SELECT w.qid, d.term,
                row_number() OVER (PARTITION BY w.qid ORDER BY d.term) AS rn
         FROM wq w JOIN df d ON d.term LIKE w.pat)
       WHERE rn <= {WILDCARD_MAX_EXPANSIONS}),
{_FT_SCORE_TAIL},
ranked AS (SELECT qid, doc_id, score,
                  row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rnk
           FROM scored)
{_ft_select(k)}
"""


def _synonym_sql(k: int = 10) -> str:
    """Synonym oracle: the expanded (qid, term) sets are corpus-free
    (frozen SYNONYMS map, one hop), so they inline as VALUES;
    out-of-vocabulary expansions drop out of the tf/df joins, then the
    shared OR-of-terms BM25 tail scores and ranks."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import SYNONYM_QUERIES
    from information_retrieval_images_ray.pipelines.query import SYNONYMS

    vals = []
    for q in SYNONYM_QUERIES:
        toks = tokenize_simple(q["query"])
        terms = sorted(set(toks) | {s for t in toks for s in SYNONYMS.get(t, ())})
        vals.extend(f"({q['qid']}, '{t}')" for t in terms)
    return f"""
WITH sq(qid, term) AS (VALUES {", ".join(vals)}),
{_FT_BASE_CTE},
{_FT_SCORE_TAIL},
ranked AS (SELECT qid, doc_id, score,
                  row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rnk
           FROM scored)
{_ft_select(k)}
"""


def _significant_sql(k: int = 10, sample_n: int = 50) -> str:
    """Significant-terms oracle: match set per battery query, the
    first sample_n matched ids ascending, foreground doc freq from the
    sample, background df from the corpus, add-one log-odds of doc
    rates (the engine's exact float ops), query terms excluded, top-k
    by (lor desc, term asc)."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import BM25_QUERIES

    vals = []
    for q in BM25_QUERIES:
        for t in sorted(set(tokenize_simple(q["query"]))):
            vals.append(f"({q['qid']}, '{t}')")
    return f"""
WITH q(qid, term) AS (VALUES {", ".join(vals)}),
tokd AS (SELECT DISTINCT doc_id, unnest({TOK_SQL}) AS term FROM documents),
m AS (SELECT DISTINCT q.qid, t.doc_id FROM q JOIN tokd t USING (term)),
samp AS (SELECT qid, doc_id FROM (
           SELECT qid, doc_id,
                  row_number() OVER (PARTITION BY qid ORDER BY doc_id) AS rn
           FROM m) WHERE rn <= {sample_n}),
ns AS (SELECT qid, CAST(count(*) AS DOUBLE) AS ns FROM samp GROUP BY 1),
fg AS (SELECT s.qid, t.term, CAST(count(*) AS DOUBLE) AS fg
       FROM samp s JOIN tokd t ON t.doc_id = s.doc_id GROUP BY 1, 2),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tokd GROUP BY 1),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
sc AS (SELECT f.qid, f.term, f.fg, d.df,
              ln((f.fg + 1.0)/(ns.ns - f.fg + 1.0))
              - ln((d.df + 1.0)/(nn.n - d.df + 1.0)) AS lor
       FROM fg f JOIN df d USING (term) JOIN ns ON ns.qid = f.qid
       CROSS JOIN nn
       WHERE NOT EXISTS (SELECT 1 FROM q
                         WHERE q.qid = f.qid AND q.term = f.term)),
rk AS (SELECT *, row_number() OVER (PARTITION BY qid
                                    ORDER BY lor DESC, term) AS rnk
       FROM sc)
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank", term,
       CAST(fg AS BIGINT) AS fg_df, CAST(df AS BIGINT) AS df,
       CAST(FLOOR(lor*1000000 + 0.5) AS BIGINT) AS lor_e6
FROM rk WHERE rnk <= {k}
"""


def _percolate_sql() -> str:
    """Percolator oracle: a doc matches a subscription when it holds
    every one of its (tokenized) terms — count distinct matched terms
    per (qid, doc) and keep full-coverage pairs."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.analysis import (
        PERCOLATE_SUBSCRIPTIONS,
    )

    vals, need = [], []
    for s0 in PERCOLATE_SUBSCRIPTIONS:
        terms = sorted(set(tokenize_simple(s0["query"])))
        need.append(f"({s0['qid']}, {len(terms)})")
        vals.extend(f"({s0['qid']}, '{t}')" for t in terms)
    return f"""
WITH subs(qid, term) AS (VALUES {", ".join(vals)}),
need(qid, n) AS (VALUES {", ".join(need)}),
tokd AS (SELECT DISTINCT doc_id, unnest({TOK_SQL}) AS term FROM documents),
hit AS (SELECT s.qid, t.doc_id, count(*) AS n_hit
        FROM subs s JOIN tokd t USING (term) GROUP BY 1, 2)
SELECT CAST(h.qid AS BIGINT) AS qid, CAST(h.doc_id AS BIGINT) AS doc_id
FROM hit h JOIN need n ON n.qid = h.qid AND n.n = h.n_hit
"""


def _term_vectors_sql() -> str:
    """Term-vector oracle: tokenize the anchor docs, per (doc, term)
    tf, joined with the corpus-wide df."""
    from information_retrieval_images_ray.pipelines.flagship import PHRASE_ANCHORS

    anchors = ", ".join(f"({a})" for a in PHRASE_ANCHORS)
    return f"""
WITH a(doc_id) AS (VALUES {anchors}),
tok AS (SELECT doc_id, unnest({TOK_SQL}) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1)
SELECT CAST(t.doc_id AS BIGINT) AS doc_id, t.term,
       CAST(t.tf AS BIGINT) AS tf, CAST(d.df AS BIGINT) AS df
FROM tf t JOIN df d USING (term) JOIN a USING (doc_id)
"""


def _range_facet_sql() -> str:
    """Range-facet oracle: the OR match set per battery query
    (distinct presence join), each matched doc's token length, bucket
    lower edge = max(edge <= dl) — exactly the engine's
    ``searchsorted(edges, dl, "right") - 1`` with ascending edges
    starting at 0 — grouped to per-(qid, bucket) counts."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import (
        BM25_QUERIES,
        LENGTH_FACET_EDGES,
    )

    vals = []
    for q in BM25_QUERIES:
        for t in sorted(set(tokenize_simple(q["query"]))):
            vals.append(f"({q['qid']}, '{t}')")
    edges = ", ".join(f"({e})" for e in LENGTH_FACET_EDGES)
    return f"""
WITH q(qid, term) AS (VALUES {", ".join(vals)}),
tokd AS (SELECT DISTINCT doc_id, unnest({TOK_SQL}) AS term FROM documents),
m AS (SELECT DISTINCT q.qid, t.doc_id FROM q JOIN tokd t ON t.term = q.term),
dl AS (SELECT doc_id, len({TOK_SQL}) AS dl FROM documents),
e(lo) AS (VALUES {edges}),
sel AS (SELECT m.qid, m.doc_id, max(e.lo) AS lo
        FROM m JOIN dl ON dl.doc_id = m.doc_id JOIN e ON e.lo <= dl.dl
        GROUP BY 1, 2)
SELECT CAST(qid AS BIGINT) AS qid, CAST(lo AS BIGINT) AS bucket_lo,
       CAST(count(*) AS BIGINT) AS n_docs
FROM sel GROUP BY 1, 2
"""


def _regex_sql(k: int = 10) -> str:
    """Regex oracle: expansions = distinct corpus terms fully matching
    the pattern (DuckDB ``regexp_full_match`` is RE2; the frozen
    battery uses only syntax RE2 and Python ``re`` evaluate
    identically), lexicographically-first max_expansions per qid (the
    reader's deterministic cap), then the shared OR-of-terms BM25
    tail."""
    from information_retrieval_images_ray.pipelines.flagship import (
        REGEX_MAX_EXPANSIONS,
        REGEX_QUERIES,
    )

    vals = ", ".join(
        f"({q['qid']}, '{q['pattern']}')" for q in REGEX_QUERIES
    )
    return f"""
WITH rq(qid, pat) AS (VALUES {vals}),
{_FT_BASE_CTE},
sq AS (SELECT qid, term FROM (
         SELECT w.qid, d.term,
                row_number() OVER (PARTITION BY w.qid ORDER BY d.term) AS rn
         FROM rq w JOIN df d ON regexp_full_match(d.term, w.pat))
       WHERE rn <= {REGEX_MAX_EXPANSIONS}),
{_FT_SCORE_TAIL},
ranked AS (SELECT qid, doc_id, score,
                  row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rnk
           FROM scored)
{_ft_select(k)}
"""


def _boosted_sql(k: int = 10) -> str:
    """Boosted oracle: the (qid, term, boost) triples come from the
    SAME clause parser the engine uses (``parse_boosted_query`` —
    repeated clauses sum their boosts), inlined as VALUES with exact
    float64 literals; scoring multiplies (boost · idf) FIRST and the
    length-normalized tf partial second, the engine's exact float
    operation order (mode ``boosted`` computes w = boost·idf once,
    then w · partial per posting)."""
    from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
    from information_retrieval_images_ray.pipelines.flagship import BOOSTED_QUERIES
    from information_retrieval_images_ray.pipelines.query import parse_boosted_query

    vals = []
    for q in BOOSTED_QUERIES:
        boosts = parse_boosted_query(q["query"], tokenize_simple)
        for t in sorted(boosts):
            vals.append(f"({q['qid']}, '{t}', {boosts[t]!r})")
    return f"""
WITH sq(qid, term, boost) AS (VALUES {", ".join(vals)}),
{_FT_BASE_CTE},
scored AS (
  SELECT q.qid, tf.doc_id,
         sum( (q.boost * ln(1.0 + (s.n - df.df + 0.5)/(df.df + 0.5)))
              * tf.tf*(1.2+1.0)/(tf.tf + 1.2*(1.0-0.75+0.75*dl.dl/s.avgdl)) ) AS score
  FROM sq q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2),
ranked AS (SELECT qid, doc_id, score,
                  row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rnk
           FROM scored)
{_ft_select(k)}
"""


def _collapse_sql(field: str = "lang", k: int = 10) -> str:
    """Field-collapse oracle over the frozen BM25 battery: full BM25
    scores (the shared CTE body), each matched doc joined to its
    ``documents.{{field}}`` value, per (qid, value) the
    (score desc, doc_id asc) leader via a windowed row_number plus the
    group's full match count, then the leaders rank by the same
    engine-wide tie-break and the top ``k`` GROUPS survive."""
    return f"""
WITH {_bm25_cte_body()},
langed AS (SELECT s.qid, s.doc_id, s.score, d.{field} AS val
           FROM scored s JOIN documents d ON d.doc_id = s.doc_id
           WHERE d.{field} IS NOT NULL),
grp AS (SELECT qid, val, doc_id, score,
               row_number() OVER (PARTITION BY qid, val
                                  ORDER BY score DESC, doc_id) AS lrn,
               count(*) OVER (PARTITION BY qid, val) AS group_n
        FROM langed),
leaders AS (SELECT qid, val, doc_id, score, group_n,
                   row_number() OVER (PARTITION BY qid
                                      ORDER BY score DESC, doc_id) AS rnk
            FROM grp WHERE lrn = 1)
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(FLOOR(score*1000000 + 0.5) AS BIGINT) AS score_e6,
       val AS {field}, CAST(group_n AS BIGINT) AS group_n
FROM leaders WHERE rnk <= {k}
"""


def _quality_filter_sql() -> str:
    """Gopher keep/drop oracle: every threshold is an integer-scaled
    comparison (no float boundary), flags computed in an inner select,
    keep = conjunction in the outer one."""
    stop_list = ", ".join(f"'{w}'" for w in EN_STOPWORDS)
    from information_retrieval_images_ray.pipelines.analysis import (
        QF_MAX_TOKENS,
        QF_MIN_TOKENS,
    )

    return f"""
WITH base AS (SELECT doc_id, {TOK_SQL} AS ts, len({TOK_SQL}) AS n FROM documents),
tokc AS (SELECT doc_id, sum(length(tok)) AS sum_len,
                sum(CASE WHEN tok IN ({stop_list}) THEN 1 ELSE 0 END) AS n_stop
         FROM (SELECT doc_id, unnest(ts) AS tok FROM base) GROUP BY doc_id),
g2 AS (SELECT doc_id, array_to_string(ts[u.i : u.i + 1], ' ') AS gm
       FROM base CROSS JOIN LATERAL unnest(range(1, greatest(n, 1))) AS u(i)),
c2 AS (SELECT doc_id, max(cnt) AS top2 FROM
         (SELECT doc_id, gm, count(*) AS cnt FROM g2 GROUP BY 1, 2) GROUP BY 1),
g5 AS (SELECT doc_id, u.i AS s, array_to_string(ts[u.i : u.i + 4], ' ') AS gm
       FROM base CROSS JOIN LATERAL unnest(range(1, greatest(n - 3, 1))) AS u(i)),
d5 AS (SELECT doc_id, gm FROM
         (SELECT doc_id, gm, count(*) AS cnt FROM g5 GROUP BY 1, 2) WHERE cnt >= 2),
cov AS (SELECT DISTINCT g5.doc_id, g5.s + o.o AS p
        FROM g5 JOIN d5 USING (doc_id, gm)
        CROSS JOIN LATERAL unnest(range(0, 5)) AS o(o)),
nc AS (SELECT doc_id, count(*) AS covered FROM cov GROUP BY 1),
flags AS (SELECT b.doc_id, b.n,
  CASE WHEN b.n BETWEEN {QF_MIN_TOKENS} AND {QF_MAX_TOKENS} THEN 1 ELSE 0 END AS pass_len,
  CASE WHEN 3 * b.n <= COALESCE(tc.sum_len, 0)
        AND COALESCE(tc.sum_len, 0) <= 10 * b.n THEN 1 ELSE 0 END AS pass_wordlen,
  CASE WHEN 100 * COALESCE(tc.n_stop, 0) >= 2 * b.n THEN 1 ELSE 0 END AS pass_stop,
  CASE WHEN 10 * COALESCE(c2.top2, 0) <= b.n THEN 1 ELSE 0 END AS pass_top2,
  CASE WHEN 10 * COALESCE(nc.covered, 0) <= 3 * b.n THEN 1 ELSE 0 END AS pass_dup5
  FROM base b
  LEFT JOIN tokc tc ON tc.doc_id = b.doc_id
  LEFT JOIN c2 ON c2.doc_id = b.doc_id
  LEFT JOIN nc ON nc.doc_id = b.doc_id)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(n AS BIGINT) AS n_tokens,
       CAST(pass_len AS BIGINT) AS pass_len,
       CAST(pass_wordlen AS BIGINT) AS pass_wordlen,
       CAST(pass_stop AS BIGINT) AS pass_stop,
       CAST(pass_top2 AS BIGINT) AS pass_top2,
       CAST(pass_dup5 AS BIGINT) AS pass_dup5,
       CAST(pass_len * pass_wordlen * pass_stop * pass_top2 * pass_dup5
            AS BIGINT) AS keep
FROM flags
"""


def _training_export_sql() -> str:
    """The composed-export oracle: the full quality-filter SQL as a
    CTE, exact dedup (min doc_id per md5(text)) among keepers, the
    md5-bucket split assignment, then the per-(split, lang) rollup —
    the same composition the Ray pipeline streams."""
    return f"""
WITH qf AS ({_quality_filter_sql()}),
kept AS (SELECT d.doc_id, d.text, d.lang, qf.n_tokens
         FROM documents d JOIN qf USING (doc_id) WHERE qf.keep = 1),
surv AS (SELECT min(doc_id) AS doc_id FROM kept GROUP BY md5(text)),
final AS (SELECT k.doc_id, k.lang, k.n_tokens,
                 CAST(concat('0x', substr(md5(CAST(k.doc_id AS VARCHAR)), 1, 16))
                      AS UBIGINT) % 100 AS b
          FROM kept k JOIN surv USING (doc_id))
SELECT CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END AS split,
       lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tokens) AS BIGINT) AS total_tokens,
       CAST(min(doc_id) AS BIGINT) AS min_doc_id,
       CAST(max(doc_id) AS BIGINT) AS max_doc_id
FROM final GROUP BY 1, 2
"""


def oracle_sql() -> dict[str, str]:
    stop_list = ", ".join(f"'{w}'" for w in EN_STOPWORDS)
    return {
        "q_bm25_topk": _bm25_sql(),
        "q_bm25_delta": _bm25_sql(),  # delta-built index == full build
        # tombstoned: full-corpus stats, deleted docs excluded from
        # every top-k before ranking (the tombstone contract)
        "q_bm25_deleted": _bm25_sql(ranked_where="WHERE doc_id % 7 <> 0"),
        "q_bm25_delta_dedup": _bm25_sql(),  # re-sent delta fully skipped
        # dedup at initial build: corpus = documents + a doc_id-shifted
        # full copy; one doc per distinct text survives (min doc_id)
        "q_bm25_dedup_build": _bm25_sql(docs_sql="""
SELECT min(doc_id) AS doc_id, text FROM (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + (SELECT max(doc_id) + 1 FROM documents), text FROM documents
) GROUP BY text"""),
        # compacted: the index IS a fresh build of the filtered corpus
        "q_bm25_compacted": _bm25_sql(doc_filter="doc_id % 7 <> 0"),
        # search-time filter: full-corpus stats, only lang=fr docs
        # ranked (WHERE binds before row_number in the ranked CTE)
        "q_phrase_topk": _phrase_sql(n_tokens=2),
        # positional phrase must agree with the text-verify phrase path
        "q_phrase_positional": _phrase_sql(n_tokens=2),
        "q_proximity_search": _proximity_sql(),
        "q_span_near": _spannear_sql(),
        "q_boolean_search": _boolean_sql(),
        "q_prefix_search": _prefix_sql(),
        "q_fuzzy_search": _fuzzy_sql(),
        "q_synonym_search": _synonym_sql(),
        "q_wildcard_search": _wildcard_sql(),
        "q_regex_search": _regex_sql(),
        "q_boosted_search": _boosted_sql(),
        "q_collapse_search": _collapse_sql(field="lang"),
        "q_faceted_search": _facet_sql(),
        "q_range_facets": _range_facet_sql(),
        "q_term_vectors": _term_vectors_sql(),
        "q_significant_terms": _significant_sql(),
        "q_more_like_this": _mlt_sql(k=10),
        "q_snippets": _snippet_sql(k=5, window=8),
        "q_bm25_merged": _bm25_sql(),
        "q_bm25_page": f"""
WITH {_bm25_cte_body()}
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(FLOOR(score * 1000000 + 0.5) AS BIGINT) AS score_e6
FROM ranked WHERE rnk BETWEEN 11 AND 20
""",
        # cursor paging reaches the identical slice of the total order
        "q_bm25_cursor": f"""
WITH {_bm25_cte_body()}
SELECT CAST(qid AS BIGINT) AS qid, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id,
       CAST(FLOOR(score * 1000000 + 0.5) AS BIGINT) AS score_e6
FROM ranked WHERE rnk BETWEEN 11 AND 20
""",
        "q_bm25_filtered": _bm25_sql(
            ranked_where="WHERE doc_id IN (SELECT doc_id FROM documents WHERE lang = 'fr')"
        ),
        "q_bm25_prf": _prf_sql(k=10, fb_docs=5, fb_terms=8, beta=0.5),
        "q_bm25_explain": _explain_sql(top_docs=3),
        "q_map_at_k": _map_at_k_sql(),
        "q_mrr_at_k": _mrr_sql(),
        "q_recall_at_k": _recall_sql(),
        "q_overlap_topk": _overlap_topk_sql(),
        "q_ndcg_at_k": _ndcg_sql(),
        "q_token_prf": _token_prf_sql(),
        "q_index_segments": f"""
WITH pairs AS (SELECT DISTINCT doc_id, unnest({TOK_SQL}) AS term FROM documents),
spans AS (SELECT max(doc_id) + 1 AS span FROM documents)
SELECT CAST((p.doc_id * 4) // s.span AS BIGINT) AS shard,
       CAST(count(DISTINCT p.term) AS BIGINT) AS n_terms,
       CAST(count(*) AS BIGINT) AS n_postings
FROM pairs p CROSS JOIN spans s GROUP BY 1
""",
        "q_term_stats": f"""
WITH tok AS (SELECT doc_id, unnest({TOK_SQL}) AS term FROM documents)
SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df,
       CAST(count(*) AS BIGINT) AS tf
FROM tok GROUP BY term
""",
        "q_doc_lengths": f"""
SELECT doc_id, CAST(len({TOK_SQL}) AS BIGINT) AS doc_len FROM documents
""",
        "q_corpus_stats": f"""
WITH dl AS (SELECT len({TOK_SQL}) AS l FROM documents),
voc AS (SELECT count(DISTINCT term) AS v FROM
        (SELECT unnest({TOK_SQL}) AS term FROM documents))
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(l) AS BIGINT) AS total_tokens,
       CAST(FLOOR(sum(l)*1.0/count(*)*1000000 + 0.5) AS BIGINT) AS avgdl_e6,
       CAST((SELECT v FROM voc) AS BIGINT) AS vocab_size,
       CAST(max(l) AS BIGINT) AS max_doc_len
FROM dl
""",
        "q_quality": f"""
WITH t AS (SELECT doc_id, text, {TOK_SQL} AS ts FROM documents)
SELECT doc_id,
  CAST(len(ts) AS BIGINT) AS n_tokens,
  CAST(len(list_distinct(ts)) AS BIGINT) AS n_distinct,
  CAST(FLOOR((CASE WHEN len(ts)=0 THEN 0.0
        ELSE len(list_filter(ts, x -> x IN ({stop_list})))*1.0/len(ts) END)
       *1000000 + 0.5) AS BIGINT) AS stop_ratio_e6,
  CAST(FLOOR((CASE WHEN len(ts)=0 THEN 0.0
        ELSE list_sum(list_transform(ts, x -> length(x)))*1.0/len(ts) END)
       *1000000 + 0.5) AS BIGINT) AS mean_token_len_e6,
  CAST(FLOOR((CASE WHEN length(text)=0 THEN 0.0
        ELSE length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))*1.0/length(text) END)
       *1000000 + 0.5) AS BIGINT) AS alpha_ratio_e6
FROM t
""",
        "q_fingerprints": f"""
SELECT doc_id, md5(array_to_string({TOK_SQL}, ' ')) AS fingerprint FROM documents
""",
        "q_langid": _langid_sql(),
        "q_pii_scan": _pii_sql(),
        "q_autocomplete": _autocomplete_sql(),
        "q_spell_suggest": _spell_sql(),
        "q_repetition_stats": _repetition_sql(),
        # NTILE mirror: DuckDB ntile gives the first n%k tiles the
        # extra row — exactly the divmod split in length_quartiles
        "q_length_quartiles": f"""
WITH toks AS (SELECT lang, doc_id, len({TOK_SQL}) AS n_tokens FROM documents),
t AS (SELECT lang, n_tokens,
             ntile(4) OVER (PARTITION BY lang ORDER BY n_tokens, doc_id) AS tile
      FROM toks)
SELECT lang, CAST(tile AS BIGINT) AS tile, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(n_tokens) AS BIGINT) AS min_tokens,
       CAST(max(n_tokens) AS BIGINT) AS max_tokens
FROM t GROUP BY 1, 2
""",
        # bigram-LM mirror: adjacent pairs via positional array index,
        # p_e6 in pure integer arithmetic ((2e6*c12 + c1) // (2*c1))
        "q_bigram_lm": f"""
WITH toks AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
bg AS (SELECT doc_id, ts[u.i] AS w1, ts[u.i + 1] AS w2
       FROM toks CROSS JOIN LATERAL unnest(range(1, len(ts))) AS u(i)),
c12 AS (SELECT w1, w2, count(*) AS n FROM bg GROUP BY 1, 2),
c1 AS (SELECT w1, sum(n) AS n1 FROM c12 GROUP BY 1),
p AS (SELECT c12.w1, c12.w2,
             (2000000 * c12.n + c1.n1) // (2 * c1.n1) AS p_e6
      FROM c12 JOIN c1 USING (w1)),
scored AS (SELECT bg.doc_id, sum(p.p_e6) AS s, count(*) AS nb
           FROM bg JOIN p ON bg.w1 = p.w1 AND bg.w2 = p.w2 GROUP BY 1)
SELECT d.doc_id, CAST(coalesce(nb, 0) AS BIGINT) AS n_bigrams,
       CAST(coalesce(s, 0) AS BIGINT) AS sum_p_e6,
       CAST(CASE WHEN coalesce(nb, 0) > 0 THEN s // nb ELSE 0 END AS BIGINT)
           AS avg_p_e6
FROM documents d LEFT JOIN scored USING (doc_id)
""",
        "q_quality_filter": _quality_filter_sql(),
        "q_training_export": _training_export_sql(),
        "q_length_histogram": f"""
WITH dl AS (SELECT len({TOK_SQL}) AS n FROM documents)
SELECT CAST((n // 10) * 10 AS BIGINT) AS bucket_lo,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n) AS BIGINT) AS total_tokens
FROM dl GROUP BY 1
""",
        "q_hll_registers": _HLL_REG_SQL,
        "q_hll_by_lang": _HLL_BY_LANG_SQL,
        "q_doc_entropy": _DOC_ENTROPY_SQL,
        "q_len_entropy_corr": f"""
WITH ent AS ({_DOC_ENTROPY_SQL}),
m AS (SELECT CAST(count(*) AS HUGEINT) AS n,
             CAST(sum(n_tokens) AS HUGEINT) AS sx,
             CAST(sum(entropy_e6) AS HUGEINT) AS sy,
             sum(CAST(n_tokens AS HUGEINT) * entropy_e6) AS sxy,
             sum(CAST(n_tokens AS HUGEINT) * n_tokens) AS sx2,
             sum(CAST(entropy_e6 AS HUGEINT) * entropy_e6) AS sy2
      FROM ent)
SELECT CAST(n AS BIGINT) AS n_docs,
       CAST(FLOOR(
         CASE WHEN sqrt(CAST(n * sx2 - sx * sx AS DOUBLE)
                        * CAST(n * sy2 - sy * sy AS DOUBLE)) = 0 THEN 0.0
              ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                   / sqrt(CAST(n * sx2 - sx * sx AS DOUBLE)
                          * CAST(n * sy2 - sy * sy AS DOUBLE)) END
         * 1000000 + 0.5) AS BIGINT) AS r_e6
FROM m
""",
        "q_tfidf_pairs": _TFIDF_PAIRS_SQL,
        "q_related_docs": f"""
WITH pairs AS ({_TFIDF_PAIRS_SQL}),
sym AS (SELECT doc_a AS doc_id, doc_b AS neighbor_id, cos_e6 FROM pairs
        UNION ALL SELECT doc_b, doc_a, cos_e6 FROM pairs),
r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                 ORDER BY cos_e6 DESC, neighbor_id) AS rnk FROM sym)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(rnk AS BIGINT) AS "rank",
       CAST(neighbor_id AS BIGINT) AS neighbor_id, cos_e6
FROM r WHERE rnk <= 3
""",
        "q_source_kl": _SOURCE_KL_SQL,
        "q_cms_registers": _cms_reg_sql(),
        "q_cms_heavy_hitters": _cms_hh_sql(),
        "q_bpe_pair_counts": _bpe_pairs_sql(),
        "q_percolate": _percolate_sql(),
        "q_stratified_sample": """
WITH h AS (SELECT lang, doc_id,
                  CAST(concat('0x', substr(md5(text), 1, 15)) AS BIGINT) AS h
           FROM documents WHERE lang IS NOT NULL),
r AS (SELECT *, row_number() OVER (PARTITION BY lang
                                   ORDER BY h, doc_id) AS rnk FROM h)
SELECT lang, CAST(rnk AS BIGINT) AS "rank",
       CAST(doc_id AS BIGINT) AS doc_id, h
FROM r WHERE rnk <= 20
""",
        "q_hll_distinct": f"""
WITH {_HLL_REG_CTE},
s AS (SELECT count(*) AS nb,
             sum(CAST(1::BIGINT << (63 - reg) AS HUGEINT)) AS s_obs
      FROM reg),
tot AS (SELECT nb, s_obs + CAST(64 - nb AS HUGEINT) * CAST(9223372036854775808 AS HUGEINT) AS s_int FROM s),
ex AS (SELECT count(*) AS exact FROM (SELECT DISTINCT unnest({TOK_SQL}) FROM documents))
SELECT CAST(64 AS BIGINT) AS m, CAST(nb AS BIGINT) AS n_buckets_hit,
       CAST(FLOOR(0.709 * 64 * 64 * 9223372036854775808.0
                  / CAST(s_int AS DOUBLE) * 1000000 + 0.5) AS BIGINT) AS est_e6,
       CAST(ex.exact AS BIGINT) AS exact_distinct
FROM tot CROSS JOIN ex
""",
        "q_token_counts": _token_counts_sql(),
        "q_train_order": """
WITH k AS (SELECT doc_id,
       CAST(concat('0x', substr(md5(concat('17:', CAST(doc_id AS VARCHAR))), 1, 16))
            AS UBIGINT) AS key
       FROM documents)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(row_number() OVER (ORDER BY key, doc_id) - 1 AS BIGINT) AS pos
FROM k
""",
        "q_quality_filter_rates": f"""
WITH qf AS ({_quality_filter_sql()}),
j AS (SELECT d.lang, qf.keep FROM qf JOIN documents d ON d.doc_id = qf.doc_id)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(keep) AS BIGINT) AS n_keep,
       CAST(FLOOR(sum(keep) * 1.0 / count(*) * 1000000 + 0.5) AS BIGINT)
         AS keep_rate_e6
FROM j GROUP BY lang
""",
        # ties rank on the e6-rounded value (both sides), term asc
        "q_distinctive_terms": f"""
WITH c AS (SELECT source, unnest({TOK_SQL}) AS term FROM documents),
a AS (SELECT source, term, count(*) AS cnt FROM c GROUP BY 1, 2),
ts AS (SELECT source, sum(cnt) AS tot_s FROM a GROUP BY 1),
tt AS (SELECT term, sum(cnt) AS tot_t FROM a GROUP BY 1),
g AS (SELECT sum(cnt) AS total FROM a),
l AS (SELECT a.source, a.term, a.cnt,
             ln((a.cnt + 1.0) / (ts.tot_s - a.cnt + 1.0))
             - ln((tt.tot_t - a.cnt + 1.0)
                  / (g.total - ts.tot_s - (tt.tot_t - a.cnt) + 1.0)) AS lor
      FROM a JOIN ts USING (source) JOIN tt USING (term) CROSS JOIN g),
r AS (SELECT source, term, cnt,
             CAST(FLOOR(lor * 1000000 + 0.5) AS BIGINT) AS lor_e6,
             row_number() OVER (
               PARTITION BY source
               ORDER BY FLOOR(lor * 1000000 + 0.5) DESC, term) AS rnk
      FROM l)
SELECT source, CAST(rnk AS BIGINT) AS "rank", term,
       CAST(cnt AS BIGINT) AS cnt, lor_e6
FROM r WHERE rnk <= 3
""",
        # md5-prefix UBIGINT mirrors functions.hashing.md5_u64 exactly
        "q_source_mix": """
WITH h AS (SELECT source,
       CAST(concat('0x', substr(md5(source), 1, 16)) AS UBIGINT) % 9 AS rb,
       CAST(concat('0x', substr(md5(concat(source, ':', CAST(doc_id AS VARCHAR))), 1, 16))
            AS UBIGINT) % 1000000 AS db
       FROM documents)
SELECT source, CAST(100000 * (1 + rb) AS BIGINT) AS rate_ppm,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN db < 100000 * (1 + rb) THEN 1 ELSE 0 END) AS BIGINT) AS n_sampled
FROM h GROUP BY source, rb
""",
        "q_tfidf_terms": f"""
WITH docs AS (SELECT doc_id, text FROM documents),
tok AS (SELECT doc_id, unnest({TOK_SQL}) AS term FROM docs),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM docs),
scored AS (SELECT tf.doc_id, tf.term, tf.tf * ln(n.n / df.df) AS s
           FROM tf JOIN df ON df.term = tf.term CROSS JOIN n),
r AS (SELECT doc_id, term, s,
             row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, term) AS rnk
      FROM scored)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(rnk AS BIGINT) AS "rank", term,
       CAST(FLOOR(s*1000000 + 0.5) AS BIGINT) AS tfidf_e6
FROM r WHERE rnk <= 5
""",
        "q_token_count_by_lang": f"""
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(len({TOK_SQL})) AS BIGINT) AS total_tokens
FROM documents GROUP BY lang
""",
        "q_exact_dedup": """
SELECT md5(text) AS content_md5, CAST(min(doc_id) AS BIGINT) AS keep_doc_id,
       CAST(count(*) AS BIGINT) AS dup_count
FROM documents GROUP BY 1
""",
        "q_minhash_neardup": _minhash_sql(),
        "q_minhash_gate": _minhash_gate_sql(),
        "q_simhash_neardup": _simhash_sql(),
        "q_ngram_jaccard": f"""
WITH {_NGRAM_PAIR_CTE}
SELECT c.doc_a, c.doc_b, CAST(c.c AS BIGINT) AS common,
       CAST(FLOOR(c.c*1.0/(sa.n + sb.n - c.c)*1000000 + 0.5) AS BIGINT) AS jaccard_e6
FROM common c
JOIN sizes sa ON sa.doc_id = c.doc_a
JOIN sizes sb ON sb.doc_id = c.doc_b
""",
        # connected components over the same pair graph: min-reachable
        # doc_id per node via a recursive CTE (UNION dedups rows, so
        # the fixpoint terminates)
        "q_dup_clusters": f"""
WITH RECURSIVE {_NGRAM_PAIR_CTE},
edges AS (SELECT doc_a AS u, doc_b AS v FROM common
          UNION SELECT doc_b, doc_a FROM common),
reach(u, r) AS (SELECT u, u FROM (SELECT DISTINCT u FROM edges) t
                UNION
                SELECT e.u, reach.r FROM edges e JOIN reach ON reach.u = e.v)
SELECT CAST(u AS BIGINT) AS doc_id, CAST(min(r) AS BIGINT) AS cluster_id
FROM reach GROUP BY u
""",
        # the dedup action list over EVERY doc: component label (own id
        # for singletons) + keep iff canonical (min-id) representative
        "q_neardup_survivors": f"""
WITH RECURSIVE {_NGRAM_PAIR_CTE},
edges AS (SELECT doc_a AS u, doc_b AS v FROM common
          UNION SELECT doc_b, doc_a FROM common),
reach(u, r) AS (SELECT u, u FROM (SELECT DISTINCT u FROM edges) t
                UNION
                SELECT e.u, reach.r FROM edges e JOIN reach ON reach.u = e.v),
cl AS (SELECT u AS doc_id, min(r) AS cluster_id FROM reach GROUP BY u)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       CAST(coalesce(cl.cluster_id, d.doc_id) AS BIGINT) AS cluster_id,
       CAST(CASE WHEN coalesce(cl.cluster_id, d.doc_id) = d.doc_id
                 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM documents d LEFT JOIN cl ON cl.doc_id = d.doc_id
""",
        # component-size histogram; size 1 aggregates every doc
        # outside the pair graph
        "q_cluster_size_hist": f"""
WITH RECURSIVE {_NGRAM_PAIR_CTE},
edges AS (SELECT doc_a AS u, doc_b AS v FROM common
          UNION SELECT doc_b, doc_a FROM common),
reach(u, r) AS (SELECT u, u FROM (SELECT DISTINCT u FROM edges) t
                UNION
                SELECT e.u, reach.r FROM edges e JOIN reach ON reach.u = e.v),
cl AS (SELECT u AS doc_id, min(r) AS cluster_id FROM reach GROUP BY u),
sz AS (SELECT cluster_id, count(*) AS size FROM cl GROUP BY 1),
hist AS (SELECT size AS cluster_size, count(*) AS n_clusters,
                size * count(*) AS n_docs FROM sz GROUP BY 1),
singles AS (SELECT 1 AS cluster_size,
                   (SELECT count(*) FROM documents) - (SELECT count(*) FROM cl) AS n_clusters,
                   (SELECT count(*) FROM documents) - (SELECT count(*) FROM cl) AS n_docs)
SELECT CAST(cluster_size AS BIGINT) AS cluster_size,
       CAST(n_clusters AS BIGINT) AS n_clusters,
       CAST(n_docs AS BIGINT) AS n_docs
FROM (SELECT * FROM singles WHERE n_clusters > 0 UNION ALL SELECT * FROM hist)
""",
        # the distributed large-star/small-star form computes the SAME
        # components — one oracle, two execution strategies
        "q_dup_components": f"""
WITH RECURSIVE {_NGRAM_PAIR_CTE},
edges AS (SELECT doc_a AS u, doc_b AS v FROM common
          UNION SELECT doc_b, doc_a FROM common),
reach(u, r) AS (SELECT u, u FROM (SELECT DISTINCT u FROM edges) t
                UNION
                SELECT e.u, reach.r FROM edges e JOIN reach ON reach.u = e.v)
SELECT CAST(u AS BIGINT) AS doc_id, CAST(min(r) AS BIGINT) AS cluster_id
FROM reach GROUP BY u
""",
        # clustering-coefficient mirror: degrees from the undirected
        # pair CTE, triangles from the three-way self-join
        "q_clustering_coeff": f"""
WITH {_NGRAM_PAIR_CTE},
edges AS (SELECT doc_a AS u, doc_b AS v FROM common
          UNION SELECT doc_b, doc_a FROM common),
deg AS (SELECT u AS doc_id, count(*) AS degree FROM edges GROUP BY 1),
tri AS (SELECT e1.doc_a AS x, e1.doc_b AS y, e2.doc_b AS z
        FROM common e1
        JOIN common e2 ON e2.doc_a = e1.doc_b
        JOIN common e3 ON e3.doc_a = e1.doc_a AND e3.doc_b = e2.doc_b),
m AS (SELECT x AS doc_id FROM tri
      UNION ALL SELECT y FROM tri
      UNION ALL SELECT z FROM tri),
tcnt AS (SELECT doc_id, count(*) AS t FROM m GROUP BY 1)
SELECT CAST(deg.doc_id AS BIGINT) AS doc_id,
       CAST(degree AS BIGINT) AS degree,
       CAST(coalesce(t, 0) AS BIGINT) AS n_triangles,
       CAST(CASE WHEN degree >= 2
                 THEN (4000000*coalesce(t, 0) + degree*(degree-1))
                      // (2*degree*(degree-1))
                 ELSE 0 END AS BIGINT) AS clustering_e6
FROM deg LEFT JOIN tcnt ON tcnt.doc_id = deg.doc_id
""",
        # integer-PageRank mirror: unrolled per-round CTEs over the
        # same pair CTE (see _pagerank_sql for the bit-exactness note)
        "q_dup_pagerank": _pagerank_sql(iters=6),
        # substring-duplication mirror: same md5-u64 window hashes,
        # DISTINCT lateral position expansion = the engine's interval
        # union
        "q_span_coverage": _span_coverage_sql(window=8),
        # span-trim mirror: kept = positions outside the covered set,
        # cleaned md5 over the order-preserving rejoin
        "q_trim_spans": _trim_spans_sql(window=8),
        # containment mirror: same pair CTE, min-size denominator in
        # the pure-integer fixed-point form
        "q_ngram_containment": f"""
WITH {_NGRAM_PAIR_CTE}
SELECT CAST(doc_a AS BIGINT) AS doc_a, CAST(doc_b AS BIGINT) AS doc_b,
       CAST(c AS BIGINT) AS common,
       CAST((2000000*c + least(sa.n, sb.n)) // (2*least(sa.n, sb.n))
            AS BIGINT) AS containment_e6
FROM common
JOIN sizes sa ON sa.doc_id = doc_a
JOIN sizes sb ON sb.doc_id = doc_b
""",
        "q_dup_rate_by_source": """
WITH h AS (SELECT source, md5(text) AS h FROM documents),
c AS (SELECT source, h, count(*) AS n FROM h GROUP BY 1, 2),
s AS (SELECT source, sum(n) AS n_docs, count(*) AS n_distinct
      FROM c GROUP BY 1)
SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(n_distinct AS BIGINT) AS n_distinct,
       CAST((2000000*(n_docs - n_distinct) + n_docs) // (2*n_docs)
            AS BIGINT) AS dup_rate_e6
FROM s
""",
        "q_vocab_growth": f"""
WITH tok AS (SELECT doc_id, unnest({TOK_SQL}) AS term FROM documents),
fs AS (SELECT term, min(doc_id) AS first_doc FROM tok GROUP BY 1),
b AS (SELECT first_doc // 50 AS bucket, count(*) AS new_terms FROM fs GROUP BY 1),
buckets AS (SELECT unnest(range(0, (SELECT max(bucket) + 1 FROM b))) AS bucket)
SELECT CAST((buckets.bucket + 1) * 50 AS BIGINT) AS up_to_doc,
       CAST(sum(coalesce(b.new_terms, 0)) OVER (ORDER BY buckets.bucket)
            AS BIGINT) AS vocab_size
FROM buckets LEFT JOIN b USING (bucket)
""",
        # triangle mirror: three-way self-join over the ordered
        # (doc_a < doc_b) pair CTE counts each triangle once
        "q_dup_triangles": f"""
WITH {_NGRAM_PAIR_CTE},
tri AS (SELECT e1.doc_a AS x, e1.doc_b AS y, e2.doc_b AS z
        FROM common e1
        JOIN common e2 ON e2.doc_a = e1.doc_b
        JOIN common e3 ON e3.doc_a = e1.doc_a AND e3.doc_b = e2.doc_b),
m AS (SELECT x AS doc_id FROM tri
      UNION ALL SELECT y FROM tri
      UNION ALL SELECT z FROM tri)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(count(*) AS BIGINT) AS n_triangles
FROM m GROUP BY 1
""",
        # decontamination mirror: same 5-gram CTE shape, split from the
        # md5(doc_id) % 100 buckets, hot-shingle cap (1024) mirrored
        "q_decontaminate": f"""
WITH lab AS (SELECT doc_id, {TOK_SQL} AS ts,
       CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
            AS UBIGINT) % 100 AS b
       FROM documents),
sh AS (SELECT DISTINCT doc_id, CASE WHEN b >= 90 THEN 1 ELSE 0 END AS is_test,
              array_to_string(ts[u.i : u.i + 4], ' ') AS shingle
       FROM lab CROSS JOIN LATERAL unnest(range(1, greatest(len(ts) - 3, 1))) AS u(i)
       WHERE b < 80 OR b >= 90),
eligible AS (SELECT shingle FROM sh GROUP BY 1 HAVING count(*) <= 1024),
test_sh AS (SELECT DISTINCT shingle FROM sh WHERE is_test = 1)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(count(*) AS BIGINT) AS n_shared
FROM sh
WHERE is_test = 0 AND shingle IN (SELECT shingle FROM eligible)
      AND shingle IN (SELECT shingle FROM test_sh)
GROUP BY 1
""",
        "q_winnow_fingerprints": f"""
{WINNOW_CTE}
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fp, CAST(min(fp) AS BIGINT) AS min_fp
FROM sel GROUP BY 1
""",
        "q_winnow_overlap": f"""
{WINNOW_CTE},
eligible AS (SELECT fp FROM sel GROUP BY 1 HAVING count(*) <= 1024),
pairs AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS c
          FROM sel a JOIN sel b ON a.fp = b.fp AND a.doc_id < b.doc_id
          WHERE a.fp IN (SELECT fp FROM eligible)
          GROUP BY 1, 2)
SELECT doc_a, doc_b, CAST(c AS BIGINT) AS common FROM pairs WHERE c >= 2
""",
        # the embedder replayed in SQL: same normalized text, same
        # chr(0)-joined feature strings, same md5 bucket/sign, integer
        # signed sums per bucket, ONE double sqrt + divide at the end
        # (exact-equality pattern shared with the BM25 oracles)
        "q_text_embed": """
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS t
  FROM documents
),
words AS (
  SELECT doc_id, 'w' || chr(0) || u.w AS feat
  FROM norm, unnest(string_split(t, ' ')) AS u(w)
  WHERE u.w <> ''
),
tris AS (
  SELECT doc_id, 'c' || chr(0) || substr(t, CAST(g.i AS INTEGER), 3) AS feat
  FROM norm, unnest(generate_series(1, length(t) - 2)) AS g(i)
  WHERE length(t) >= 3
),
feats AS (SELECT * FROM words UNION ALL SELECT * FROM tris),
hashed AS (
  SELECT doc_id,
         CAST(concat('0x', substr(md5('0' || chr(0) || feat), 1, 16)) AS UBIGINT) AS h
  FROM feats
),
comp AS (
  SELECT doc_id, CAST(h % 16 AS BIGINT) AS bucket,
         SUM(CASE WHEN (h >> 63) & 1 = 1 THEN -1 ELSE 1 END) AS w
  FROM hashed GROUP BY 1, 2
),
nrm AS (SELECT doc_id, sqrt(SUM(CAST(w * w AS DOUBLE))) AS n FROM comp GROUP BY 1)
SELECT c.doc_id, c.bucket,
       CAST(FLOOR(CAST(c.w AS DOUBLE) / nrm.n * 1000000 + 0.5) AS BIGINT) AS weight_e6
FROM comp c JOIN nrm USING (doc_id)
WHERE c.w <> 0
""",
        "q_embedding_neardup": """
WITH e AS (SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
       CAST(FLOOR(list_cosine_similarity(a.emb, b.emb)*1000000 + 0.5) AS BIGINT) AS sim_e6
FROM e a JOIN e b ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.emb, b.emb) >= 0.4
""",
        "q_knn_cosine": _KNN_SQL,
        # the driver's q_ivf_knn runs with nprobe == nlist (every
        # cluster probed), which makes IVF exhaustively exact — so the
        # brute-force top-k SQL is its oracle too. Sub-exhaustive
        # nprobe (the ANN regime) is covered by the pytest
        # recall-vs-exact assertion instead.
        "q_ivf_knn": _KNN_SQL,
        "q_ivf_persisted": _KNN_SQL,
        "q_ivf_filtered": _KNN_FILTERED_SQL,
        # maintenance lifecycle: extend re-adds every row (oracle = all
        # rows); delete/compact exclude the tombstoned % 7 ids — the
        # compacted key matching the SAME oracle proves compaction is
        # invisible to searches
        "q_ivf_extended": _KNN_SQL,
        "q_ivf_deleted": _KNN_DELETED_SQL,
        "q_ivf_compacted": _KNN_DELETED_SQL,
        "q_hybrid_rrf": _hybrid_rrf_sql(),
        # positioned tokens via the indexed-unnest trick; ties at the
        # LIMIT boundary broken (cnt desc, t1, t2) on both sides
        "q_term_cooccurrence": f"""
WITH toks AS (SELECT doc_id, {TOK_SQL} AS ts FROM documents),
pos AS (SELECT doc_id, u.i AS i, ts[u.i] AS term
        FROM toks CROSS JOIN LATERAL unnest(range(1, len(ts) + 1)) AS u(i)),
pairs AS (SELECT least(a.term, b.term) AS t1, greatest(a.term, b.term) AS t2,
                 count(*) AS cnt
          FROM pos a JOIN pos b
            ON a.doc_id = b.doc_id AND b.i > a.i AND b.i <= a.i + 10
          WHERE a.term <> b.term
          GROUP BY 1, 2)
SELECT t1, t2, CAST(cnt AS BIGINT) AS cnt
FROM pairs ORDER BY cnt DESC, t1, t2 LIMIT 50
""",
        "q_split_summary": f"""
WITH t AS (SELECT lang, len({TOK_SQL}) AS n_tok,
                  CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                       AS UBIGINT) % 100 AS b
           FROM documents)
SELECT CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END AS split,
       lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tok) AS BIGINT) AS total_tokens
FROM t GROUP BY 1, 2
""",
        # exact global ordered cumsum — SQL mirrors the bucketed
        # two-phase prefix with one window function
        "q_pack_sequences": f"""
WITH dl AS (SELECT doc_id, len({TOK_SQL}) AS doc_len FROM documents),
c AS (SELECT doc_id, doc_len,
             COALESCE(sum(doc_len) OVER (ORDER BY doc_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prev
      FROM dl)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(doc_len AS BIGINT) AS doc_len,
       CAST(prev // 2048 AS BIGINT) AS seq_id,
       CAST(prev % 2048 AS BIGINT) AS seq_off
FROM c
""",
        # Every queries() key has a SQL oracle. The sketch operators
        # (minhash/simhash) are exactly mirrorable because their hashes
        # are md5-prefix ints and their float reductions are sums of
        # int-valued doubles — see _minhash_sql/_simhash_sql.
    }
