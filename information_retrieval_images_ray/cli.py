"""CLI verbs — the user-facing surface of the engine.

Mirrors the reference's argparse verb set (/root/reference/main.py:12-76:
--create-label/--embed-text/--search/--show-db/--reset) reshaped for the
index engine:

  python -m information_retrieval_images_ray build   --corpus DIR --index DIR
  python -m information_retrieval_images_ray extend  --corpus DIR --index DIR
  python -m information_retrieval_images_ray query   --index DIR QUERY [-k K]
  python -m information_retrieval_images_ray serve   --index DIR --port 8080
  python -m information_retrieval_images_ray show    --index DIR
  python -m information_retrieval_images_ray delete  --index DIR IDS...
  python -m information_retrieval_images_ray compact --index DIR --out DIR
  python -m information_retrieval_images_ray merge   DIR1 DIR2... --out DIR
  python -m information_retrieval_images_ray reset   --index DIR --yes

Vector-index verbs (the persisted-IVF lifecycle, mirroring the text
verbs — reference vector_db.py create/insert/delete/search):

  python -m information_retrieval_images_ray vec-build   --vectors PQ --index DIR
  python -m information_retrieval_images_ray vec-extend  --vectors PQ --index DIR
  python -m information_retrieval_images_ray vec-delete  --index DIR IDS...
  python -m information_retrieval_images_ray vec-compact --index DIR [--refit]
  python -m information_retrieval_images_ray vec-search  --index DIR "[...]" -k K
  python -m information_retrieval_images_ray vec-search  --index DIR --text "..." -k K
  python -m information_retrieval_images_ray vec-embed   --corpus PQ --out DIR --dim D

``extend`` diffs the corpus listing against the manifest's ingested
files and indexes only the NEW files (the reference's re-run-to-extend
workflow, main.py --create-label re-runs skipping done rows).

The CLI owns the Ray session (guarded init, shutdown on exit); the
library never calls ray.init (driver contract).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def _ensure_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False)
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)


def cmd_build(args) -> int:
    _ensure_ray(args.num_cpus)
    from .pipelines.build import build_index
    from .sources.corpus_source import (
        assign_dense_doc_ids,
        corpus_files,
        read_code_corpus,
    )

    ds = read_code_corpus(args.corpus)
    if args.assign_ids:
        ds = assign_dense_doc_ids(ds)
    stats = build_index(
        ds,
        args.index,
        source_files=corpus_files(args.corpus),
        tokenizer=args.tokenizer,
        num_shards=args.shards,
        dedup=args.dedup,
    )
    print(json.dumps(stats))
    return 0


def cmd_extend(args) -> int:
    """Delta build: index only corpus files not yet in the manifest.
    New docs get doc_ids appended after the current span."""
    _ensure_ray(args.num_cpus)
    import json as _json
    import os

    from .pipelines.build import extend_index, ingested_files
    from .sources.corpus_source import (
        assign_dense_doc_ids,
        corpus_files,
        read_code_corpus,
    )
    from .state.manifest import fingerprint_file

    done = ingested_files(args.index)  # abspath -> fingerprint
    new, changed = [], []
    for f in corpus_files(args.corpus):
        ap = os.path.abspath(f)
        if ap not in done:
            new.append(f)
        elif done[ap] != fingerprint_file(f):
            changed.append(f)
    if changed:
        # an already-ingested file whose content/mtime changed is NOT
        # a delta — re-appending it would duplicate every one of its
        # docs under fresh doc_ids (inflating df and doubling hits)
        print(
            _json.dumps(
                {
                    "error": "already-ingested files changed; extend only "
                    "appends NEW files. Changed docs go through delete + "
                    "re-append (see pipelines/maintenance) or a rebuild.",
                    "changed_files": changed,
                }
            ),
            file=sys.stderr,
        )
        return 2
    if not new:
        print(_json.dumps({"new_files": 0, "skipped": len(done)}))
        return 0
    with open(os.path.join(args.index, "stats.json")) as fh:
        start = _json.load(fh)["doc_id_span"]
    ds = read_code_corpus(new)
    if args.assign_ids:
        ds = assign_dense_doc_ids(ds, start_id=start)
    stats = extend_index(ds, args.index, delta_files=new)
    print(_json.dumps({"new_files": len(new), **{k: stats[k] for k in ("n_docs", "num_shards")}}))
    return 0


def cmd_delete(args) -> int:
    """Tombstone doc_ids (reference delete_record)."""
    from .pipelines.maintenance import delete_docs

    n = delete_docs(args.index, [int(x) for x in args.ids])
    print(json.dumps({"tombstoned": n}))
    return 0


def cmd_compact(args) -> int:
    """Materialize tombstones into a fresh index directory."""
    _ensure_ray(args.num_cpus)
    from .pipelines.maintenance import compact_index

    stats = compact_index(args.index, args.out)
    print(json.dumps(stats))
    return 0


def cmd_merge(args) -> int:
    """Combine disjoint-id indexes into one (segment merge; input
    tombstones are materialized)."""
    _ensure_ray(args.num_cpus)
    from .pipelines.maintenance import merge_indexes

    stats = merge_indexes(list(args.inputs), args.out)
    print(json.dumps({k: stats[k] for k in ("n_docs", "num_shards")}))
    return 0


def cmd_serve(args) -> int:
    """HTTP JSON API over the replica actor pool (reference
    server.py:46-177 surface)."""
    _ensure_ray(args.num_cpus)
    from .pipelines.serving_http import IndexHTTPServer

    srv = IndexHTTPServer(
        args.index, num_actors=args.actors, port=args.port, host=args.host,
        vector_index_dir=args.vector_index, corpus_path=args.corpus,
    )
    print(json.dumps({"listening": f"http://{args.host}:{srv.port}"}), flush=True)
    try:
        srv.httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.close()
    return 0


def cmd_query(args) -> int:
    """Every query mode through the serial reader's one plan path
    (``compile_plan`` → ``IndexReader.topk``), then optional facets,
    snippets, explanations and hydration."""
    from .pipelines.query import IndexReader, hydrate_hits
    from .pipelines.serving_http import attach_snippets, plan_terms

    mode = args.mode
    if args.explain and mode != "bm25":
        print("--explain is only available for --mode bm25", file=sys.stderr)
        return 2
    reader = IndexReader(args.index)
    doc_filter = ("lang", args.lang) if args.lang else None
    after = None
    if args.after:  # cursor paging: "score,doc_id" of the last hit
        s0, d0 = args.after.split(",", 1)
        after = (float(s0), int(d0))
    plan = reader.compile(mode, args.query, {
        "must": args.must or args.query, "should": args.should,
        "must_not": args.must_not, "max_edits": args.max_edits,
        "max_expansions": args.max_expansions, "max_terms": args.max_terms,
        "fb_docs": args.fb_docs, "fb_terms": args.fb_terms, "beta": args.beta,
        "window": args.window, "collapse_field": args.collapse_field,
        "search_after": after,
    })
    # expand before ranking so snippets mark the expanded terms
    plan = reader.expand([plan])[0]
    try:
        hits = reader.topk([plan], args.k, doc_filter, offset=args.offset)
    except (ValueError, FileNotFoundError) as e:  # bad -k / --offset, no sidecar
        print(str(e), file=sys.stderr)
        return 2
    rows = [{"doc_id": int(h["doc_id"]), "score": h["score"],
             **({"group": h["group"], "group_n": h["group_n"]}
                if "group" in h else {})}
            for h in hits]
    if args.facets:
        fc = reader.facet_counts(
            args.query, args.facets.split(","), doc_filter=doc_filter)
        print(json.dumps({"facets": fc}))
    # --snippet-corpus: the best-window highlight per hit (same
    # contract as HTTP "snippet": true)
    if args.snippet_corpus:
        attach_snippets(rows, args.snippet_corpus, plan_terms(plan),
                        args.snippet_window, reader.tokenize)
    if args.explain and rows:
        expl: dict[int, list[dict]] = {}
        for e in reader.explain(args.query, [r["doc_id"] for r in rows]):
            expl.setdefault(e["doc_id"], []).append({
                "term": e["term"], "tf": e["tf"], "df": e["df"],
                "idf": e["idf"], "contribution": e["contribution"],
            })
        for r in rows:
            r["explanation"] = expl.get(r["doc_id"], [])
    if args.hydrate:
        import pandas as pd

        out = pd.DataFrame({"doc_id": [r["doc_id"] for r in rows],
                            "score": [r["score"] for r in rows]})
        out = hydrate_hits(out, args.index)
        extra = {c for r in rows for c in r} - {"doc_id", "score"}
        for col in sorted(extra):
            by_doc = {r["doc_id"]: r.get(col) for r in rows}
            out[col] = [by_doc.get(int(d)) for d in out["doc_id"]]
        print(out.to_json(orient="records"))
    else:
        print(json.dumps(rows))
    return 0


def cmd_show(args) -> int:
    """Index inspection (reference --show-db / db_contents.py)."""
    from .pipelines.query import shard_summary

    with open(os.path.join(args.index, "stats.json")) as f:
        stats = json.load(f)
    summary = {"stats": stats, "shards": shard_summary(args.index)}
    print(json.dumps(summary, indent=1))
    return 0


def cmd_reset(args) -> int:
    """Destructive index removal — explicit --yes required (the
    reference prompts interactively, main.py:246-249)."""
    if not args.yes:
        print("refusing: pass --yes to delete the index directory", file=sys.stderr)
        return 2
    shutil.rmtree(args.index, ignore_errors=True)
    print(json.dumps({"removed": args.index}))
    return 0


def cmd_vec_build(args) -> int:
    """Build (or resume) a persisted IVF index from a parquet table
    with (vec_id, embedding[, metadata...]) columns — the reference's
    create_collection + IVF_FLAT index (vector_db.py:21-42)."""
    _ensure_ray(args.num_cpus)
    import ray.data

    from .pipelines.similarity import build_ivf_index

    meta = build_ivf_index(
        ray.data.read_parquet(args.vectors), args.index, nlist=args.nlist
    )
    print(json.dumps(meta))
    return 0


def cmd_vec_extend(args) -> int:
    """Incrementally add vectors (anti-joined against the indexed
    ids, assigned to the existing centroids)."""
    _ensure_ray(args.num_cpus)
    import ray.data

    from .pipelines.similarity import extend_ivf_index

    meta = extend_ivf_index(ray.data.read_parquet(args.vectors), args.index)
    print(json.dumps(meta))
    return 0


def cmd_vec_delete(args) -> int:
    """Tombstone vec_ids (reference delete_record, vector_db.py:54-58)."""
    from .pipelines.similarity import delete_ivf_vectors

    meta = delete_ivf_vectors(args.index, [int(x) for x in args.ids])
    print(json.dumps(meta))
    return 0


def cmd_vec_compact(args) -> int:
    """Fold epochs + drop tombstoned vectors; --refit re-trains the
    coarse quantizer on the survivors."""
    _ensure_ray(args.num_cpus)
    from .pipelines.similarity import compact_ivf_index

    meta = compact_ivf_index(args.index, refit=args.refit, nlist=args.nlist)
    print(json.dumps(meta))
    return 0


def cmd_export(args) -> int:
    """Composed training-data export: quality filter -> exact dedup ->
    deterministic hash split -> hive-partitioned parquet + manifest
    (pipelines/export.py). Prints the per-(split, lang) summary."""
    _ensure_ray(args.num_cpus)
    import ray.data

    from .pipelines.export import export_training_data

    ds = ray.data.read_parquet(
        args.corpus, columns=[args.id_col, args.text_col, args.lang_col]
    )
    renames = {src: dst for src, dst in [
        (args.id_col, "doc_id"), (args.text_col, "text"),
        (args.lang_col, "lang"),
    ] if src != dst}
    if renames:
        ds = ds.rename_columns(renames)
    summary = export_training_data(ds, args.out, train=args.train, val=args.val)
    print(summary.to_json(orient="records"))
    return 0


def cmd_report(args) -> int:
    """Corpus-health report: the intake checks a training-data
    pipeline runs before committing a crawl — corpus stats, quality
    keep rates, per-source exact-dup rates, per-lang length quartiles
    and the vocabulary growth curve — as ONE JSON document (stdout, or
    --out FILE written atomically)."""
    _ensure_ray(args.num_cpus)
    import numpy as np
    import ray.data

    from .pipelines.analysis import (
        corpus_stats,
        doc_token_entropy,
        dup_rate_by_source,
        length_quartiles,
        quality_filter_rates,
        source_kl_divergence,
        vocab_growth,
    )

    def docs(columns):
        ds = ray.data.read_parquet(args.corpus, columns=columns)
        renames = {src: dst for src, dst in [
            (args.id_col, "doc_id"), (args.text_col, "text"),
            (args.lang_col, "lang"), (args.source_col, "source"),
        ] if src != dst and src in columns}
        return ds.rename_columns(renames) if renames else ds

    base = [args.id_col, args.text_col]
    report = {
        "corpus": args.corpus,
        "stats": corpus_stats(docs(base)).to_dict("records"),
        "quality_rates": quality_filter_rates(
            docs(base + [args.lang_col])).to_dict("records"),
        "dup_rate_by_source": dup_rate_by_source(
            docs(base + [args.source_col])).to_dict("records"),
        "length_quartiles": length_quartiles(
            docs(base + [args.lang_col])).to_dict("records"),
        "vocab_growth": vocab_growth(
            docs(base), bucket=args.vocab_bucket).to_dict("records"),
        # token-entropy distribution summary (repetitiveness signal):
        # p10/p50/p90 of the per-doc entropy, low tail = template/spam
        # — only the one int64 column rides to the driver
        "entropy_percentiles_e6": {
            f"p{p}": int(v) for p, v in zip(
                (10, 50, 90),
                np.percentile(
                    doc_token_entropy(docs(base))
                    .select_columns(["entropy_e6"])
                    .to_pandas()["entropy_e6"],
                    [10, 50, 90], method="lower",
                ),
            )
        },
        # per-source unigram KL vs the corpus mix (domain drift)
        "source_kl": source_kl_divergence(
            docs(base + [args.source_col])).to_dict("records"),
    }
    payload = json.dumps(report, default=str)
    if args.out:
        import os
        tmp = args.out + ".tmp"
        with open(tmp, "w") as f:
            f.write(payload)
        os.replace(tmp, args.out)
    else:
        print(payload)
    return 0


def cmd_vec_embed(args) -> int:
    """Embed a text parquet into (vec_id, embedding) parquet with the
    deterministic hashed-n-gram embedder — the corpus half of the
    text->vector->index loop (then: vec-build --vectors OUT)."""
    _ensure_ray(args.num_cpus)
    import ray.data

    from .pipelines.similarity import embed_text_pipeline

    embed_text_pipeline(
        ray.data.read_parquet(args.corpus, columns=[args.id_col, args.text_col]),
        dim=args.dim, seed=args.seed,
        text_col=args.text_col, id_col=args.id_col,
    ).write_parquet(args.out)
    print(json.dumps({"out": args.out, "dim": args.dim, "seed": args.seed}))
    return 0


def cmd_vec_search(args) -> int:
    """ANN top-k for a JSON query vector — or raw --text, embedded
    with the same hashed-n-gram embedder at the index's dim (the
    reference's search-time text embed, server.py:135-140)."""
    _ensure_ray(args.num_cpus)
    import numpy as np

    from .pipelines.similarity import IVFIndexReader

    if args.vector is None and not args.text:
        print("need a JSON vector argument or --text", file=sys.stderr)
        return 2
    if args.vector is not None:
        vec = np.asarray(json.loads(args.vector), np.float64)
    else:
        from .functions.embedder import HashedNgramEmbedder
        from .pipelines.similarity import _read_ivf_meta

        dim = int(_read_ivf_meta(args.index)["dim"])
        vec = HashedNgramEmbedder(dim=dim, seed=args.seed).embed([args.text])[0]
    reader = IVFIndexReader(args.index, num_actors=args.actors)
    try:
        out = reader.search(
            vec[None, :], k=args.k, nprobe=args.nprobe,
            filter_col=args.filter_col,
            filter_value=json.loads(args.filter_value) if args.filter_value else None,
        )
    finally:
        reader.close()
    print(out.drop(columns=["qid"]).to_json(orient="records"))
    return 0


def make_parser() -> argparse.ArgumentParser:
    from .pipelines.query import MODES

    p = argparse.ArgumentParser(prog="information_retrieval_images_ray")
    sub = p.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("build", help="build (or resume) an index from a parquet corpus")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--tokenizer", default="code", choices=["code", "simple"])
    b.add_argument("--shards", type=int, default=16)
    b.add_argument("--num-cpus", type=int, default=None)
    b.add_argument(
        "--no-assign-ids",
        dest="assign_ids",
        action="store_false",
        help="corpus already carries dense uint64 doc_id",
    )
    b.add_argument(
        "--dedup",
        action="store_true",
        help="content-level dedup at build: one doc per distinct sha256",
    )
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("extend", help="delta build: index only NEW corpus files")
    e.add_argument("--corpus", required=True)
    e.add_argument("--index", required=True)
    e.add_argument("--num-cpus", type=int, default=None)
    e.add_argument(
        "--no-assign-ids",
        dest="assign_ids",
        action="store_false",
        help="corpus already carries dense uint64 doc_id above the current span",
    )
    e.set_defaults(func=cmd_extend)

    d = sub.add_parser("delete", help="tombstone doc_ids")
    d.add_argument("ids", nargs="+")
    d.add_argument("--index", required=True)
    d.set_defaults(func=cmd_delete)

    c = sub.add_parser("compact", help="rebuild without tombstoned docs")
    c.add_argument("--index", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--num-cpus", type=int, default=None)
    c.set_defaults(func=cmd_compact)

    mg = sub.add_parser("merge", help="combine disjoint-id indexes into one")
    mg.add_argument("inputs", nargs="+", help="two or more index dirs")
    mg.add_argument("--out", required=True)
    mg.add_argument("--num-cpus", type=int, default=None)
    mg.set_defaults(func=cmd_merge)

    q = sub.add_parser("query", help="top-k over a built index (all modes)")
    q.add_argument("query")
    q.add_argument("--index", required=True)
    q.add_argument("-k", type=int, default=10)
    q.add_argument("--offset", type=int, default=0,
                   help="skip the first N ranks (deep paging)")
    q.add_argument("--after", default=None, metavar="SCORE,DOC_ID",
                   help="bm25 mode: cursor paging — return the top-k "
                        "strictly after this (score, doc_id) in rank "
                        "order (search_after)")
    q.add_argument("--mode", default="bm25", choices=MODES)
    q.add_argument("--collapse-field", dest="collapse_field", default="lang",
                   help="collapse mode: docmeta column whose groups "
                        "collapse to their best hit")
    q.add_argument("--must", default="", help="boolean mode: AND terms")
    q.add_argument("--should", default="", help="boolean mode: OR terms")
    q.add_argument("--must-not", dest="must_not", default="",
                   help="boolean mode: excluded terms")
    q.add_argument("--max-edits", dest="max_edits", type=int, default=1)
    q.add_argument("--max-expansions", dest="max_expansions", type=int,
                   default=64)
    q.add_argument("--max-terms", dest="max_terms", type=int, default=8,
                   help="more_like_this: tf-idf term budget")
    q.add_argument("--fb-docs", dest="fb_docs", type=int, default=5,
                   help="prf mode: pseudo-relevant feedback depth")
    q.add_argument("--fb-terms", dest="fb_terms", type=int, default=8,
                   help="prf mode: expansion term budget")
    q.add_argument("--beta", type=float, default=0.5,
                   help="prf mode: expansion term weight multiplier")
    q.add_argument("--explain", action="store_true",
                   help="bm25 mode: print the per-hit per-term BM25 "
                        "breakdown (tf, df, idf, contribution)")
    q.add_argument("--window", type=int, default=8,
                   help="proximity mode: token span")
    q.add_argument("--facets", default=None,
                   help="comma-separated docmeta columns: also print "
                        "match-set facet counts")
    q.add_argument("--snippet-corpus", dest="snippet_corpus", default=None,
                   help="(doc_id, text) parquet: attach <em>-marked "
                        "best-window snippets per hit (literal-term modes)")
    q.add_argument("--snippet-window", dest="snippet_window", type=int,
                   default=8)
    q.add_argument("--hydrate", action="store_true")
    q.add_argument("--lang", default=None,
                   help="restrict results to docs with this docmeta lang")
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("serve", help="HTTP JSON API over the index actor pool")
    v.add_argument("--index", required=True)
    v.add_argument("--port", type=int, default=8080)
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--actors", type=int, default=2,
                   help="replica actors, each holding the whole index; "
                        "searches take them in turn")
    v.add_argument("--num-cpus", type=int, default=None)
    v.add_argument("--vector-index", default=None,
                   help="persisted IVF index dir; enables POST /hybrid")
    v.add_argument("--corpus", default=None,
                   help="(doc_id, text) parquet; enables snippet "
                        "highlighting on /search")
    v.set_defaults(func=cmd_serve)

    s = sub.add_parser("show", help="index stats + per-shard summary")
    s.add_argument("--index", required=True)
    s.set_defaults(func=cmd_show)

    r = sub.add_parser("reset", help="delete an index directory")
    r.add_argument("--index", required=True)
    r.add_argument("--yes", action="store_true")
    r.set_defaults(func=cmd_reset)

    vb = sub.add_parser("vec-build", help="build a persisted IVF vector index")
    vb.add_argument("--vectors", required=True, help="parquet with vec_id + embedding")
    vb.add_argument("--index", required=True)
    vb.add_argument("--nlist", type=int, default=16)
    vb.add_argument("--num-cpus", type=int, default=None)
    vb.set_defaults(func=cmd_vec_build)

    ve = sub.add_parser("vec-extend", help="add new vectors to a persisted IVF index")
    ve.add_argument("--vectors", required=True)
    ve.add_argument("--index", required=True)
    ve.add_argument("--num-cpus", type=int, default=None)
    ve.set_defaults(func=cmd_vec_extend)

    vd = sub.add_parser("vec-delete", help="tombstone vec_ids")
    vd.add_argument("ids", nargs="+")
    vd.add_argument("--index", required=True)
    vd.set_defaults(func=cmd_vec_delete)

    vc = sub.add_parser("vec-compact", help="fold epochs, drop tombstoned vectors")
    vc.add_argument("--index", required=True)
    vc.add_argument("--refit", action="store_true",
                    help="re-train the coarse quantizer on the survivors")
    vc.add_argument("--nlist", type=int, default=None,
                    help="nlist for --refit (default: keep current)")
    vc.add_argument("--num-cpus", type=int, default=None)
    vc.set_defaults(func=cmd_vec_compact)

    ex = sub.add_parser("export",
                        help="training-data export: filter+dedup+split -> parquet")
    ex.add_argument("--corpus", required=True, help="parquet with id/text/lang")
    ex.add_argument("--out", required=True, help="NEW output dir (hive-partitioned)")
    ex.add_argument("--train", type=int, default=80, help="train bucket cut (of 100)")
    ex.add_argument("--val", type=int, default=10, help="val bucket width (of 100)")
    ex.add_argument("--id-col", default="doc_id")
    ex.add_argument("--text-col", default="text")
    ex.add_argument("--lang-col", default="lang")
    ex.add_argument("--num-cpus", type=int, default=None)
    ex.set_defaults(func=cmd_export)

    rp = sub.add_parser("report",
                        help="corpus-health report: stats/quality/dup/quartiles/vocab JSON")
    rp.add_argument("--corpus", required=True, help="parquet with id/text/lang/source")
    rp.add_argument("--out", default=None, help="write JSON here (default stdout)")
    rp.add_argument("--vocab-bucket", type=int, default=50)
    rp.add_argument("--id-col", default="doc_id")
    rp.add_argument("--text-col", default="text")
    rp.add_argument("--lang-col", default="lang")
    rp.add_argument("--source-col", default="source")
    rp.add_argument("--num-cpus", type=int, default=None)
    rp.set_defaults(func=cmd_report)

    vm = sub.add_parser("vec-embed",
                        help="embed a text parquet with the hashed-n-gram embedder")
    vm.add_argument("--corpus", required=True, help="parquet with id + text columns")
    vm.add_argument("--out", required=True, help="output parquet dir (vec_id, embedding)")
    vm.add_argument("--dim", type=int, default=64)
    vm.add_argument("--seed", type=int, default=0)
    vm.add_argument("--text-col", default="text")
    vm.add_argument("--id-col", default="doc_id")
    vm.add_argument("--num-cpus", type=int, default=None)
    vm.set_defaults(func=cmd_vec_embed)

    vs = sub.add_parser("vec-search",
                        help="ANN top-k for a JSON query vector or raw --text")
    vs.add_argument("vector", nargs="?", default=None,
                    help='JSON list of floats, e.g. "[0.1, 0.2, ...]" (or use --text)')
    vs.add_argument("--text", default=None,
                    help="raw query text, embedded server-side at the index dim")
    vs.add_argument("--seed", type=int, default=0,
                    help="embedder seed for --text (must match vec-embed)")
    vs.add_argument("--index", required=True)
    vs.add_argument("-k", type=int, default=10)
    vs.add_argument("--nprobe", type=int, default=4)
    vs.add_argument("--actors", type=int, default=2)
    vs.add_argument("--filter-col", default=None)
    vs.add_argument("--filter-value", default=None,
                    help="JSON-encoded equality value for --filter-col")
    vs.add_argument("--num-cpus", type=int, default=None)
    vs.set_defaults(func=cmd_vec_search)
    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
