"""HTTP serving layer — the reference's user-facing entry point
(/root/reference/server.py:46-177: POST /search, GET /get-image,
POST /reset-db over FastAPI) re-expressed as a dependency-free stdlib
``http.server`` JSON API over the replica actor pool:

  POST /search        {"query": str, "limit": int=10, "hydrate": bool=true,
                       "snippet": bool=false, "snippet_window": int=8}
                      -> ranked [{doc_id, rank, score, repo, path, ...}]
                      (reference's {md5, file_path, description,
                      distance} hit shape, server.py:150-175).
                      With ``snippet`` (needs the server started with
                      ``corpus_path=``) each hit also carries
                      {snippet, snip_start, n_match}: the best
                      fixed-window highlight — same semantics as the
                      q_snippets battery (max distinct query terms in
                      the window, ties leftmost), query terms wrapped
                      in <em></em>. Literal modes mark the query
                      terms; expansion modes (prefix/fuzzy/wildcard/
                      regex) mark their deterministic dictionary
                      expansions — exactly the terms that scored;
                      more_like_this/prf return hits without snippets
                      (their matched terms come from per-anchor
                      docterms reads the page doesn't carry).
  GET  /doc/<doc_id>  -> the doc's metadata row (GET /get-image
                      analogue: the stored artifact for one hit); 404
                      for an unknown or tombstoned id, 400 for a
                      non-integer one
  GET  /stats         -> index stats (the --show-db verb over HTTP)
                      plus the serving pool ``generation``, its
                      ``page_cache`` counters {hits, misses, rows} and
                      ``retries``: searches its actor set resent to the
                      next replica after a transport failure
  POST /delete        {"doc_ids": [int, ...]}
                      -> {"tombstoned": n, "generation": g}
                      (reference delete_record, vector_db.py:54-58;
                      a pool generation that honours the deletes is
                      installed before the call returns. Deletes or
                      docmeta updates made outside the server need
                      POST /reload)
  POST /extend        {"docs": [{"content": str, ...meta}, ...],
                       "skip_existing_content": bool=false}
                      -> {"added": n, "n_docs": total, "generation": g}
                      (reference's
                      POST /label-images ingest, server.py:46-63:
                      push new content through the pipeline over HTTP;
                      delta_id is the content hash, so re-POSTing the
                      same payload is an idempotent no-op — the
                      md5-presence skip at request granularity)
  POST /reset         {"confirm": true} -> {"removed": dir} — delete
                      the whole index and retire the pool (reference
                      POST /reset-db, server.py:104-116, which calls a
                      nonexistent delete_entire_db — here it works and
                      is guarded exactly like the CLI's `reset --yes`:
                      without confirm it's a 400 no-op). Afterwards
                      /search//stats return 409 until a rebuilt index
                      is re-attached via POST /reload (or a restart).
  POST /reload        {} -> {"n_docs": n, "generation": g} — attach a
                      (re)built index from disk by swapping in a
                      fresh actor pool.
  POST /knn           {"vector": [float, ...] | "text": str,
                       "limit": int=10,
                       "nprobe": int=4, "filter_col": str|null,
                       "filter_value": any, "hydrate": bool=true}
                      -> pure ANN ranking over the attached persisted
                      IVF index (the reference's search_by_embedding
                      endpoint, vector_db.py:93-103 / server.py:147).
                      The query vector comes from the client OR the
                      server embeds ``text`` itself (the reference's
                      search-time embed, server.py:135-140, re-done
                      with the deterministic hashed-n-gram embedder —
                      functions.embedder — at the index's dim).
                      Tombstone-aware like /hybrid; 409 when no vector
                      index is attached.
  POST /hybrid        {"query": str, "vector": [float, ...] |
                       "text": str, "limit": int=10, "n_each": int=20,
                       "nprobe": int=4, "hydrate": bool=true}
                      -> RRF fusion of the BM25 ranking for ``query``
                      and the ANN ranking for ``vector`` against the
                      persisted IVF index the server was started with
                      (``vector_index_dir=``; 409 when absent). With
                      ``text`` and no ``vector``/``query``, the one
                      string drives both sides — the full text-in
                      hybrid loop, server-embedded.

Design notes, deliberately NOT the reference's shape where the
reference got it wrong: the heavy state (index shards) lives in the
long-lived ShardQueryActor pool of whole-index replicas, started ONCE
at server start (and again only on /reload) — the reference constructs
its Milvus/SQLite/embedding clients per request (server.py:135-146).
The HTTP layer itself is a thin threaded router: all scoring runs in
the replica actors, one frame per search on a kept-open TCP connection
to one replica (no Ray task: Ray starts, places and kills the replicas
and carries only the control calls), and concurrent requests spread
over the replicas round-robin, each HTTP thread on its own connection.
Every replica holds the whole index, so a search whose replica died
or whose connection broke is resent once to the next replica and
counted in /stats ``retries``; a replica that refuses a connect gets
no more turns, and with every replica dead a search is a prompt 500.
A POST body that is not a JSON object is a 400, and so is a /delete or
/termvectors ``doc_ids`` that is not a list of integers or an /extend
``docs`` that is not a list of objects with string ``content`` and
metadata; such a request writes nothing. At cluster scale N of
these routers sit behind any TCP load balancer — the routers hold no
request state (tokenize + merge + hydrate).

HTTP framing is the handler's own: it reads the request line and the
header lines itself (no ``email`` parser, the stdlib's keep-alive,
``Expect: 100-continue`` and 400 / 431 / 505 rules kept), and every
response — status line, ``Date``, ``Content-Type``,
``Content-Length`` and the compact JSON body — leaves in ONE write, so
the client wakes once per request.

The query path reads nothing from disk (snippets, PRF feedback docs
and positional verification excepted), and tombstones come with the
generation. Hydration (``hydrate_hits``) fills the page's own row
dicts in place from the serving generation's in-memory docmeta,
through a ``serving.DocRows`` view built with the generation: a
``searchsorted`` over the sorted doc ids, then each column's cells
straight from the table's Arrow buffers into the rows, so a page of
the column types the build writes costs no Arrow call and no per-row
meta dict, and the router holds no per-doc Python object. Every index
write made through the server installs a new pool generation
(``ShardedQueryService``) before it returns: /extend attaches only the
new shards to the running actors (as one more segment each), /delete
swaps only the tombstones, and /reload alone starts a fresh actor set.
A write made while a replica is dead attaches on the live replicas
only, and the dead one gets no more turns.
"""

from __future__ import annotations

import itertools
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pandas as pd

from .maintenance import is_tombstoned
from .positions import best_window
from .serving import ShardedQueryService

# the longest request or header line and the most header lines a
# request may have (the stdlib's limits), and the lines that end the headers
_MAX_LINE = 65536
_MAX_HEADERS = 100
_END = (b"\r\n", b"\n", b"")

# request-body keys /search and /msearch pass through to search()
_SEARCH_PARAM_KEYS = (
    "must", "should", "must_not", "max_edits", "prefix_len",
    "max_expansions", "window", "max_terms", "exclude_doc", "offset",
    "snippet", "snippet_window", "fb_docs", "fb_terms", "beta",
    "explain", "search_after", "collapse_field",
)


def _doc_ids_arg(req: dict) -> list[int]:
    """The ``doc_ids`` of /delete and /termvectors: a list of JSON
    integers in the int64 doc id range. Bools, floats and strings raise
    a ValueError."""
    ids = req.get("doc_ids", [])
    if not isinstance(ids, list) or not all(
            type(d) is int and 0 <= d < 2**63 for d in ids):
        raise ValueError('"doc_ids" must be a list of non-negative integers')
    return ids


def _docs_arg(req: dict) -> list[dict]:
    """/extend's ``docs``: a list of objects whose ``content`` is a
    string and whose ``repo``, ``path``, ``commit`` and ``lang``, when
    given, are strings. Anything else raises a ValueError."""
    docs = req.get("docs", [])
    if not isinstance(docs, list):
        raise ValueError('"docs" must be a list of objects')
    for i, d in enumerate(docs):
        if not isinstance(d, dict) or not isinstance(d.get("content"), str):
            raise ValueError(f'docs[{i}] must be an object with a string "content"')
        bad = [k for k in ("repo", "path", "commit", "lang")
               if k in d and not isinstance(d[k], str)]
        if bad:
            raise ValueError(f'docs[{i}]["{bad[0]}"] must be a string')
    return docs


def plan_terms(plan: dict) -> set[str]:
    """The terms a snippet marks for a compiled (and expanded) plan:
    exactly its scored terms — the literal query terms, or the
    deterministic dictionary expansions for prefix / fuzzy / wildcard
    / regex. Feedback plans (more_like_this, prf) mark nothing: their
    terms come from per-anchor docterms reads the page doesn't carry."""
    return set() if plan["feedback"] else set(plan["terms"] or ())


def attach_snippets(rows: list[dict], corpus_path: str, qterms: set[str],
                    window: int, tokenize) -> None:
    """Add {snippet, snip_start, n_match} to each hit row in place —
    q_snippets semantics (best distinct-term window, leftmost tie),
    ``qterms`` wrapped in <em></em>. One doc_id-pruned read of the
    page's texts; hits without corpus text (e.g. /extend'd docs) are
    left untouched."""
    if not qterms or not rows:
        return
    import pyarrow.dataset as pads

    t = pads.dataset(corpus_path, format="parquet").to_table(
        columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin([int(r["doc_id"]) for r in rows]),
    )
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    for r in rows:
        text = texts.get(int(r["doc_id"]))
        if text is None:
            continue
        tokens = tokenize(text)
        got = best_window(tokens, qterms, window)
        if got is None:
            continue
        start, n_match = got
        r["snip_start"] = start
        r["n_match"] = n_match
        r["snippet"] = " ".join(
            f"<em>{w}</em>" if w in qterms else w
            for w in tokens[start:start + window]
        )


def hydrate_hits(svc: ShardedQueryService, rows: list[dict]) -> list[dict]:
    """Hydrate the hit rows ``rows`` in place, each named by its
    ``doc_id``, from the generation's in-memory docmeta table, read
    through its ``serving.DocRows`` view (``fill``): a
    ``searchsorted``, then each column's cells from the Arrow buffers
    straight into the rows, with no disk read. Python values, ``None``
    for nulls, ``content_sha256`` as hex; fields the rows already carry
    win. Returns the rows whose doc the table holds. The one entry
    point of every hydrated page."""
    return svc.docmeta.fill(rows)


class IndexHTTPServer:
    """Threaded JSON API over one index. ``port=0`` binds an ephemeral
    port (tests); ``start()`` serves in a daemon thread, ``close()``
    stops the listener and kills the actor pool."""

    def __init__(self, index_dir: str, num_actors: int = 2, port: int = 0,
                 host: str = "127.0.0.1", vector_index_dir: str | None = None,
                 embedder=None, corpus_path: str | None = None):
        self.index_dir = index_dir
        self.num_actors = num_actors
        self.vector_index_dir = vector_index_dir
        # source corpus parquet (file or dir) with (doc_id, text) —
        # enables "snippet": true on /search; reads are doc_id-pruned
        # per page, never a scan. Docs ingested later over /extend are
        # not in this file, so their hits render without snippets.
        self.corpus_path = corpus_path
        self.service: ShardedQueryService | None = ShardedQueryService(
            index_dir, num_actors=num_actors
        )
        # the persisted IVF index's cluster-actor pool and the
        # server-side query embedder (reference embeds query TEXT at
        # search time, server.py:135-140) are built here, never inside
        # a request: the pool lives for the server's lifetime, so
        # cluster caches warm across requests. ``embedder`` is any
        # object with .embed([str]) -> (1, dim); the default is the
        # engine's own HashedNgramEmbedder at the index's dim, matching
        # an index built by similarity.embed_text_pipeline.
        self._ivf = None
        self.embedder = embedder
        if vector_index_dir is not None:
            from .similarity import IVFIndexReader, _read_ivf_meta

            self._ivf = IVFIndexReader(vector_index_dir, num_actors=num_actors)
            if embedder is None:
                from ..functions.embedder import HashedNgramEmbedder

                self.embedder = HashedNgramEmbedder(
                    dim=int(_read_ivf_meta(vector_index_dir)["dim"]))
        # ThreadingHTTPServer handles requests concurrently; ``_lock``
        # guards the ``service`` reference (a request takes the pool
        # generation once and serves its whole answer from it)
        self._lock = threading.Lock()
        # Serializes the index writers (/extend, /delete, /reset,
        # /reload) against each other WITHOUT blocking searches: an
        # extend's Ray delta job and the next generation's attach run
        # under this lock only, and ``_lock`` is taken just to swap
        # the reference — the rolling-index-update form. Lock order
        # is always _extend_lock -> _lock.
        self._extend_lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            # keep-alive: a client reuses one connection (and this
            # server one thread) for all its requests. Every response
            # is one write (status line, headers and body) carrying
            # Content-Length; TCP_NODELAY sends it at once.
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, *a):  # quiet
                pass

            def parse_request(self) -> bool:
                """Read the request line (``raw_requestline``) and the
                header lines into ``command``, ``path``,
                ``request_version`` and ``headers``: a dict keyed by
                the lower-case header name, holding the first value of
                a repeated name. Header lines are split at their first
                colon, with no ``email`` parser. The stdlib handler's
                rules hold: HTTP/1.1 keeps the connection open and
                HTTP/1.0 closes it, unless ``Connection`` says
                ``close`` or ``keep-alive``; ``Expect: 100-continue``
                on HTTP/1.1 gets ``100 Continue`` before the body is
                read; a bad request line is a 400 (an HTTP/0.9 line
                without a version too), a header line over 64 KiB or
                more than 100 header lines a 431, HTTP/2 and above a
                505. On an error the reply is sent, the connection
                closes and False is returned."""
                self.command, self.request_version = None, "HTTP/1.0"
                self.close_connection = True
                self.requestline = line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
                words = line.split()
                if not words:
                    return False
                try:
                    command, path, version = words
                    major, minor = version.removeprefix("HTTP/").split(".")
                    if not (version.startswith("HTTP/") and major.isdigit() and minor.isdigit()
                            and len(major) <= 10 and len(minor) <= 10):
                        raise ValueError
                    number = int(major), int(minor)
                except ValueError:
                    self.send_error(400, f"Bad request line {line!r}")
                    return False
                if number >= (2, 0):
                    self.send_error(505, f"Invalid HTTP version ({version})")
                    return False
                headers: dict[str, str] = {}
                for n in itertools.count(1):
                    raw = self.rfile.readline(_MAX_LINE + 1)
                    if len(raw) > _MAX_LINE or n > _MAX_HEADERS and raw not in _END:
                        self.send_error(431, "Header line too long or too many headers")
                        return False
                    if raw in _END:
                        break
                    name, colon, value = str(raw, "iso-8859-1").partition(":")
                    if colon:
                        headers.setdefault(name.strip().lower(), value.strip())
                if path.startswith("//"):  # as the stdlib: never an absolute URI
                    path = "/" + path.lstrip("/")
                self.command, self.path, self.headers = command, path, headers
                self.request_version = version
                conn = headers.get("connection", "").lower()
                self.close_connection = conn == "close" or (number < (1, 1) and conn != "keep-alive")
                if number >= (1, 1) and headers.get("expect", "").lower() == "100-continue":
                    self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                return True

            def send_error(self, code: int, message: str | None = None) -> None:
                """Every error reply, this parser's and the stdlib
                handler's (an unsupported method, a request line over
                64 KiB): a JSON {"error"}, and the connection closes."""
                self.close_connection = True
                self._json(int(code), {"error": message or self.responses.get(code, ("error",))[0]})

            def _send(self, code: int, ctype: str, body: bytes) -> None:
                """One response in one write: status line, ``Date``,
                ``Content-Type``, ``Content-Length``, ``Connection:
                close`` when the connection ends after it, and the
                body."""
                close = "Connection: close\r\n" if self.close_connection else ""
                self.wfile.write((
                    f"HTTP/1.1 {code} {self.responses.get(code, ('',))[0]}\r\n"
                    f"Date: {self.date_time_string()}\r\n"
                    f"Content-Type: {ctype}\r\nContent-Length: {len(body)}\r\n"
                    f"{close}\r\n").encode("latin-1") + body)

            def _json(self, code: int, payload) -> None:
                self._send(code, "application/json",
                           json.dumps(payload, separators=(",", ":")).encode())

            def do_GET(self):
                try:
                    if self.path in ("/", "/ui"):
                        # built-in search UI (the reference's frontend
                        # view layer, Search.tsx, as one self-contained
                        # page over the same POST /search contract)
                        from .frontend import INDEX_HTML

                        self._send(200, "text/html; charset=utf-8", INDEX_HTML.encode())
                        return
                    if outer.service is None and self.path != "/stats":
                        self._json(409, {"error": "index was reset; rebuild and POST /reload"})
                        return
                    if self.path == "/stats":
                        import os

                        path = os.path.join(outer.index_dir, "stats.json")
                        if not os.path.exists(path):
                            self._json(404, {"error": "no index (reset or never built)"})
                            return
                        with open(path) as f:
                            stats = json.load(f)
                        svc = outer._pool()
                        stats["generation"] = svc.generation if svc else None
                        stats["page_cache"] = svc.page_cache_counters() if svc else None
                        stats["retries"] = svc.retries() if svc else None
                        self._json(200, stats)
                    elif self.path.startswith("/doc/"):
                        try:
                            doc_id = np.int64(self.path.split("/doc/", 1)[1])
                        except (ValueError, OverflowError):
                            self._json(400, {"error": "doc id must be an int64"})
                            return
                        svc = outer._pool()
                        # a tombstoned doc is gone, as no search returns it
                        gone = is_tombstoned(svc.tombstones, np.array([doc_id]))[0]
                        rows = [] if gone else hydrate_hits(svc, [{"doc_id": int(doc_id)}])
                        if not rows:
                            self._json(404, {"error": f"doc {doc_id} not found"})
                        else:
                            self._json(200, rows[0])
                    else:
                        self._json(404, {"error": "unknown route"})
                except Exception as e:  # surface, don't crash the thread
                    self._json(500, {"error": str(e)})

            def do_POST(self):
                try:
                    n = int(self.headers.get("content-length", 0))
                    try:  # the body is read whole, so the connection stays usable
                        req = json.loads(self.rfile.read(n) or b"{}")
                        if not isinstance(req, dict):
                            raise ValueError("the request body must be a JSON object")
                    except ValueError as e:  # not JSON, not UTF-8, or not an object
                        self._json(400, {"error": f"malformed request body: {e}"})
                        return
                    if self.path == "/reset":
                        if not req.get("confirm") is True:
                            self._json(400, {"error": "refusing: pass {\"confirm\": true}"})
                        else:
                            self._json(200, outer.reset())
                        return
                    if self.path == "/reload":
                        self._json(200, outer.reload())
                        return
                    if outer.service is None:
                        self._json(409, {"error": "index was reset; rebuild and POST /reload"})
                        return
                    if self.path == "/search":
                        try:
                            self._json(200, outer.search(
                                req.get("query", ""),
                                int(req.get("limit", 10)),
                                bool(req.get("hydrate", True)),
                                lang=req.get("lang"),
                                mode=str(req.get("mode", "bm25")),
                                **{kk: req[kk] for kk in _SEARCH_PARAM_KEYS
                                   if kk in req},
                            ))
                        except ValueError as e:  # bad mode / bad param
                            self._json(400, {"error": str(e)})
                        except FileNotFoundError as e:  # no sidecar
                            self._json(409, {"error": str(e)})
                    elif self.path == "/msearch":
                        try:
                            self._json(200, {
                                "responses": outer.msearch(
                                    req.get("searches", []))
                            })
                        except ValueError as e:  # malformed batch
                            self._json(400, {"error": str(e)})
                    elif self.path == "/facets":
                        out = outer.facets(
                            req.get("query", ""),
                            req.get("cols", ["lang"]),
                            lang=req.get("lang"),
                        )
                        # optional numeric range facet over token
                        # length: "length_edges": [0, 8, 16, ...]
                        if req.get("length_edges"):
                            out["length"] = outer.length_facets(
                                req.get("query", ""),
                                [int(e) for e in req["length_edges"]],
                                lang=req.get("lang"),
                            )
                        self._json(200, out)
                    elif self.path == "/significant":
                        self._json(200, outer.significant(
                            req.get("query", ""),
                            int(req.get("limit", 10)),
                            int(req.get("sample_n", 50)),
                            lang=req.get("lang"),
                        ))
                    elif self.path in ("/delete", "/termvectors", "/extend"):
                        # validated before anything is read or written
                        try:
                            arg = (_docs_arg if self.path == "/extend"
                                   else _doc_ids_arg)(req)
                        except ValueError as e:
                            self._json(400, {"error": str(e)})
                            return
                        if self.path == "/delete":
                            self._json(200, outer.delete(arg))
                        elif self.path == "/termvectors":
                            self._json(200, outer.termvectors(arg))
                        else:
                            self._json(200, outer.extend(
                                arg, bool(req.get("skip_existing_content", False))))
                    elif self.path == "/knn":
                        if outer.vector_index_dir is None:
                            self._json(409, {"error": "no vector index attached (vector_index_dir)"})
                            return
                        vec = req.get("vector")
                        txt = req.get("text")
                        if vec is None and isinstance(txt, str) and txt.strip():
                            vec = outer.embed_text(txt)
                        if not isinstance(vec, list) or not vec:
                            self._json(400, {"error": "need \"vector\" (non-empty list of floats) or \"text\" (str)"})
                            return
                        self._json(200, outer.knn(
                            vec,
                            k=int(req.get("limit", 10)),
                            nprobe=int(req.get("nprobe", 4)),
                            filter_col=req.get("filter_col"),
                            filter_value=req.get("filter_value"),
                            hydrate=bool(req.get("hydrate", True)),
                        ))
                    elif self.path == "/hybrid":
                        if outer.vector_index_dir is None:
                            self._json(409, {"error": "no vector index attached (vector_index_dir)"})
                            return
                        vec = req.get("vector")
                        txt = req.get("text")
                        if vec is None and isinstance(txt, str) and txt.strip():
                            vec = outer.embed_text(txt)
                        if not isinstance(vec, list) or not vec:
                            self._json(400, {"error": "need \"vector\" (non-empty list of floats) or \"text\" (str)"})
                            return
                        self._json(200, outer.hybrid(
                            # text-only hybrid: the same string drives
                            # BOTH the lexical and the vector side
                            req.get("query") or (txt if isinstance(txt, str) else ""),
                            vec,
                            k=int(req.get("limit", 10)),
                            n_each=int(req.get("n_each", 20)),
                            nprobe=int(req.get("nprobe", 4)),
                            hydrate=bool(req.get("hydrate", True)),
                        ))
                    else:
                        self._json(404, {"error": "unknown route"})
                except Exception as e:
                    # the request body may be unread: end the connection
                    self.close_connection = True
                    self._json(500, {"error": str(e)})

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.port = self.httpd.server_address[1]
        self._thread: threading.Thread | None = None

    # -- core ops (also usable without HTTP) ---------------------------------
    def search(self, query: str, k: int = 10, hydrate: bool = True,
               lang: str | None = None, mode: str = "bm25",
               **params) -> list[dict]:
        """One ranked request: ``query.compile_plan`` turns ``mode`` +
        ``params`` (the ``_SEARCH_PARAM_KEYS`` body keys) into a plan,
        then one ``ShardedQueryService.topk`` call serves it — every
        mode is rank-identical to the serial reader by construction.
        ``lang`` restricts results to docs with that docmeta lang
        (query-time filter; global stats); ``offset`` pages by rank in
        every mode. Per-hit extras: ``explain`` (bm25 only) attaches
        the Lucene-style per-term breakdown whose contributions sum to
        the hit's score; ``snippet`` (needs ``corpus_path``) the best
        highlighted window. Raises ValueError for a bad mode or
        option (a negative ``k`` or ``offset`` too), FileNotFoundError for a positional mode without the
        positions sidecar."""
        svc = self._pool()
        body = {**params, "query": query, "mode": mode}
        plan = self._compile(svc, body)
        return self._answer(svc, [plan], [body], k, lang,
                            int(params.get("offset", 0)), hydrate)[0]

    def msearch(self, searches: list[dict]) -> list:
        """Elasticsearch-style ``_msearch``: N search bodies in one
        POST, one response per body (order preserved). Bodies that
        share (limit, lang, offset, hydrate) — whatever their modes —
        ride ONE pooled ``topk`` call (one replica round trip for the group's
        uncached plans) and ONE in-memory hydration lookup per group.
        Results are bitwise
        identical to per-body ``search`` because every step is
        per-plan independent. A body that fails to compile (bad mode)
        or a group that fails (positional mode without a sidecar)
        yields ``{"error": ...}`` at that body's index only — the ES
        contract."""
        if not isinstance(searches, list) or not searches:
            raise ValueError("msearch needs a non-empty 'searches' list")
        svc = self._pool()
        out: list = [None] * len(searches)
        groups: dict[tuple, list[tuple[int, dict, dict]]] = {}
        for i, s in enumerate(searches):
            body = {kk: s[kk] for kk in _SEARCH_PARAM_KEYS if kk in s}
            body.update(query=s.get("query", ""), mode=str(s.get("mode", "bm25")))
            try:
                plan = self._compile(svc, body, qid=i)
            except ValueError as e:
                out[i] = {"error": str(e)}
                continue
            key = (int(s.get("limit", 10)), s.get("lang"),
                   int(s.get("offset", 0)), bool(s.get("hydrate", True)))
            groups.setdefault(key, []).append((i, plan, body))

        def run(members, key):
            try:
                return self._answer(svc, [m[1] for m in members],
                                    [m[2] for m in members], *key)
            except (ValueError, FileNotFoundError) as e:
                if len(members) == 1:
                    return [{"error": str(e)}]
                return [r for m in members for r in run([m], key)]

        for key, members in groups.items():
            for (i, _, _), resp in zip(members, run(members, key)):
                out[i] = resp
        return out

    def _compile(self, svc: ShardedQueryService, body: dict, qid: int = 0) -> dict:
        """Plan for one request body; per-hit options are validated up
        front so a batch isolates their errors per body."""
        mode = body["mode"]
        if body.get("explain") and mode != "bm25":
            raise ValueError(
                "explain is only available for mode=bm25 (the breakdown "
                "mirrors the literal ranked query)")
        if body.get("snippet") and not self.corpus_path:
            raise ValueError("snippet requested but the server has no corpus_path")
        return svc.compile(mode, body["query"], body, qid=qid)

    def _answer(self, svc: ShardedQueryService, plans: list[dict],
                bodies: list[dict], k: int, lang: str | None, offset: int,
                hydrate: bool) -> list[list[dict]]:
        """One ``topk`` call for a group of plans, then the per-body
        extras: explain, one hydration lookup for the group, snippets.
        A plan whose body asks for snippets is expanded first, in its
        own call, so the snippet marks exactly the expanded terms that
        scored; every other plan is expanded inside ``topk``'s one
        call."""
        snip = [i for i, b in enumerate(bodies) if b.get("snippet")]
        for i, p in zip(snip, svc.expand([plans[i] for i in snip])):
            plans[i] = p
        hits = svc.topk(plans, k=k, doc_filter=("lang", lang) if lang else None,
                        offset=offset)
        # ``topk``'s rows are fresh dicts: each becomes its hit row
        # without its qid (rank, doc_id, score, group, group_n)
        rows: dict[int, list[dict]] = {p["qid"]: [] for p in plans}
        for h in hits:
            rows[h.pop("qid")].append(h)
        out = [rows[p["qid"]] for p in plans]
        for body, page in zip(bodies, out):
            if body.get("explain") and page:
                # one pool explain call per page, grouped onto the hits
                by_doc: dict[int, list[dict]] = {}
                for e in svc.explain(body["query"], [r["doc_id"] for r in page]):
                    by_doc.setdefault(e["doc_id"], []).append({
                        "term": e["term"], "tf": e["tf"], "df": e["df"],
                        "idf": e["idf"], "contribution": e["contribution"],
                    })
                for r in page:
                    r["explanation"] = by_doc.get(r["doc_id"], [])
        rows = [r for page in out for r in page]
        if hydrate and rows:
            hydrate_hits(svc, rows)
        for plan, body, page in zip(plans, bodies, out):
            if body.get("snippet") and page:
                attach_snippets(page, self.corpus_path, plan_terms(plan),
                                int(body.get("snippet_window", 8)), svc.tokenize)
        return out

    def facets(self, query: str, cols: list[str],
               lang: str | None = None) -> dict:
        """Match-set facet counts over docmeta columns (POST /facets:
        {"query", "cols": ["lang", ...], "lang"?}) — the whole-result-
        set distribution next to the ranked page, in one replica round trip."""
        svc = self._pool()
        doc_filter = ("lang", lang) if lang else None
        return svc.facets(
            [{"qid": 0, "query": query}], list(cols), doc_filter)[0]

    def significant(self, query: str, k: int = 10, sample_n: int = 50,
                    lang: str | None = None) -> list[dict]:
        """Significant-terms aggregation (POST /significant): what the
        query's whole match set is ABOUT, in one replica round trip."""
        svc = self._pool()
        doc_filter = ("lang", lang) if lang else None
        return svc.topk_significant(
            [{"qid": 0, "query": query}], k=k, sample_n=sample_n,
            doc_filter=doc_filter)

    def termvectors(self, doc_ids: list[int]) -> list[dict]:
        """Per-doc term vectors (POST /termvectors {"doc_ids": [...]},
        the Elasticsearch ``_termvectors`` analogue): (term, tf) pairs
        from one doc_id-pruned docterms read and each term's exact
        global df (``IndexReader.term_vectors``), in one replica round trip."""
        svc = self._pool()
        return svc.term_vectors(doc_ids)

    def length_facets(self, query: str, edges: list[int],
                      lang: str | None = None) -> list[dict]:
        """Numeric range-facet counts of the match set's token lengths
        (POST /facets with "length_edges"), in one replica round trip."""
        svc = self._pool()
        doc_filter = ("lang", lang) if lang else None
        return svc.length_facets(
            [{"qid": 0, "query": query}], edges, doc_filter)[0]

    def embed_text(self, text: str) -> list[float]:
        """Server-side query embedding (the reference's search-time
        text embed, server.py:135-140 -> embeddings.py:12-31) with the
        embedder attached at start-up. Deterministic, so
        server-embedded text and a client embedding the same text rank
        identically."""
        return self.embedder.embed([text])[0].tolist()

    def _vector_topk(self, ivf, vector, n: int, nprobe: int, tombs,
                     filter_col: str | None = None, filter_value=None) -> pd.DataFrame:
        """ANN top-n over LIVE docs — the one tombstone contract both
        /knn and /hybrid use: overfetch by a capped tombstone
        allowance, drop tombstoned ids, dense re-rank. If the capped
        fetch came back underfilled (more than the allowance of
        tombstones outranked the live docs), refetch ONCE with the
        full tombstone count so heavily-deleted neighborhoods still
        fill to n."""
        q = np.asarray(vector, np.float64)[None, :]
        for fetch in (n + min(len(tombs), 64), n + len(tombs)):
            vec = ivf.search(
                q, k=fetch, nprobe=nprobe,
                filter_col=filter_col, filter_value=filter_value,
            ).rename(columns={"vec_id": "doc_id"})
            if len(tombs):
                vec = vec[~vec["doc_id"].isin(list(tombs))]
            if len(vec) >= n or len(tombs) <= 64:
                break
        vec = vec.sort_values("rank").head(n).reset_index(drop=True)
        vec["rank"] = np.arange(1, len(vec) + 1, dtype=np.int64)
        return vec

    def knn(self, vector: list[float], k: int = 10, nprobe: int = 4,
            filter_col: str | None = None, filter_value=None,
            hydrate: bool = True) -> list[dict]:
        """Pure ANN top-k for a client-supplied query vector against
        the attached persisted IVF index (reference
        search_by_embedding, vector_db.py:93-103). Tombstone contract
        shared with /hybrid via ``_vector_topk``."""
        if self.vector_index_dir is None:
            raise RuntimeError("no vector index attached (vector_index_dir)")
        svc = self._pool()
        vec = self._vector_topk(self._ivf, vector, k, nprobe, svc.tombstones,
                                filter_col, filter_value)
        rows = [
            {
                "rank": int(r["rank"]),
                "doc_id": int(r["doc_id"]),
                "sim": r["sim_e6"] / 1_000_000,
            }
            for _, r in vec.iterrows()
        ]
        if hydrate and rows:
            hydrate_hits(svc, rows)
        return rows

    def hybrid(self, query: str, vector: list[float], k: int = 10,
               n_each: int = 20, nprobe: int = 4, hydrate: bool = True) -> list[dict]:
        """Reciprocal-rank fusion of the BM25 top-``n_each`` for
        ``query`` (replica scorer pool, tombstone-aware) and the ANN
        top-``n_each`` for ``vector`` (persisted-IVF cluster actors).
        The vector side overfetches by the tombstone count and drops
        tombstoned ids with a dense re-rank, so both rankings range
        over live docs before fusing. Rows carry provenance
        (bm25_rank / vec_rank, null when only the other side hit)."""
        from .hybrid import rrf_fuse

        if self.vector_index_dir is None:
            raise RuntimeError("no vector index attached (vector_index_dir)")
        svc = self._pool()

        hits = svc.topk([svc.compile("bm25", query)], k=n_each)
        lex = pd.DataFrame({
            "qid": np.zeros(len(hits), np.int64),
            "doc_id": np.array([h["doc_id"] for h in hits], np.int64),
            "rank": np.array([h["rank"] for h in hits], np.int64),
        })
        vec = self._vector_topk(self._ivf, vector, n_each, nprobe, svc.tombstones)

        fused = rrf_fuse(lex, vec, k=k)
        lex_rank = dict(zip(lex["doc_id"], lex["rank"]))
        vec_rank = dict(zip(vec["doc_id"], vec["rank"]))
        rows = [
            {
                "rank": int(r["rank"]),
                "doc_id": int(r["doc_id"]),
                "rrf": r["rrf_e6"] / 1_000_000,
                "bm25_rank": int(lex_rank[r["doc_id"]]) if r["doc_id"] in lex_rank else None,
                "vec_rank": int(vec_rank[r["doc_id"]]) if r["doc_id"] in vec_rank else None,
            }
            for _, r in fused.iterrows()
        ]
        if hydrate and rows:
            hydrate_hits(svc, rows)
        return rows

    def extend(self, docs: list[dict], skip_existing_content: bool = False) -> dict:
        """Append new docs over HTTP (reference POST /label-images):
        ids assigned after the current span, delta built through the
        normal ``extend_index`` path, then the next pool generation
        (``ShardedQueryService.extended``) attaches the new shards on
        every running actor — no actor starts and no other shard is
        reloaded. ``delta_id`` is the content hash, so the same
        payload extends at most once (and installs nothing). The Ray
        delta job and the attach run under ``_extend_lock`` only —
        searches keep flowing against the CURRENT generation for their
        whole duration (they see the pre-extend index, exactly a
        rolling index update's semantics); ``_lock`` is taken just to
        swap the generation reference at the end. Returns the
        generation serving afterwards. Concurrent extends serialize on
        ``_extend_lock`` (both the doc-id span read and the delta
        build must not interleave)."""
        import hashlib
        import json as _json
        import os

        import ray.data

        from .build import extend_index

        if not docs:
            return {"added": 0, "error": "no docs"}
        with self._extend_lock:
            if self.service is None:  # reset raced in before us
                raise RuntimeError("index was reset; rebuild and POST /reload")
            with open(os.path.join(self.index_dir, "stats.json")) as f:
                before = _json.load(f)
            span = before["doc_id_span"]
            delta_id = hashlib.sha256(
                "\x00".join((d.get("content") or "") for d in docs).encode("utf-8")
            ).hexdigest()[:16]
            rows = [
                {
                    "doc_id": span + i,
                    "content": d.get("content") or "",
                    "repo": str(d.get("repo") or "http"),
                    "path": str(d.get("path") or f"http_{delta_id}_{i}.txt"),
                    "commit": str(d.get("commit") or ""),
                    "lang": str(d.get("lang") or ""),
                }
                for i, d in enumerate(docs)
            ]
            # one block: one tokenize task and one docterms file
            # (from_items alone spreads the rows over many blocks, and
            # from_arrow starts a remote metadata task on every call)
            stats = extend_index(
                ray.data.from_items(rows, override_num_blocks=1),
                self.index_dir,
                delta_id=delta_id,
                skip_existing_content=skip_existing_content,
            )
            added = int(stats["n_docs"]) - int(before["n_docs"])
            if added:
                self._install(self.service.extended(stats))
            return {"added": added, "n_docs": int(stats["n_docs"]),
                    "generation": self.service.generation}

    def delete(self, doc_ids: list[int]) -> dict:
        """Tombstone ``doc_ids`` (POST /delete) and install a
        tombstone-only generation (``ShardedQueryService.deleted``:
        same actors, same shards, same docmeta) before
        returning, so the next request sees the deletes. Returns the
        generation serving afterwards. Serialized with the other index
        writers on ``_extend_lock``."""
        from .maintenance import delete_docs, load_tombstones

        with self._extend_lock:
            if self.service is None:  # reset raced in before us
                raise RuntimeError("index was reset; rebuild and POST /reload")
            n = delete_docs(self.index_dir, doc_ids)
            if n:
                self._install(self.service.deleted(load_tombstones(self.index_dir)))
            return {"tombstoned": n, "generation": self.service.generation}

    def _pool(self) -> ShardedQueryService | None:
        """The current pool generation; a request takes it once and
        scores, hydrates and filters tombstones against that one."""
        with self._lock:
            return self.service

    def _install(self, new: ShardedQueryService) -> None:
        """Swap in the next generation under ``_lock``. Caller holds
        ``_extend_lock``. The old generation is DROPPED, not killed: a
        search mid-flight on it holds its own reference, and its actor
        views are retired once the last such reference goes (killing
        actors under a running search turned it into a 500). Its actor
        set is killed then only if no live generation shares it, i.e.
        after /reload or /reset."""
        with self._lock:
            self.service = new

    def reset(self) -> dict:
        """Delete the index and retire the pool (reference POST
        /reset-db). Confirmation is enforced by the HTTP handler; the
        generation is dropped, and its actors are killed once in-flight
        searches have drained.
        Takes ``_extend_lock`` first (the global lock order), so a
        reset waits for an in-flight ingest rather than deleting the
        index directory out from under its delta job."""
        import shutil

        with self._extend_lock, self._lock:
            self.service = None
            shutil.rmtree(self.index_dir, ignore_errors=True)
        return {"removed": self.index_dir}

    def reload(self) -> dict:
        """(Re-)attach the on-disk index with a fresh actor set — used
        after an out-of-band rebuild following /reset, after compact or
        merge, and after deletes or docmeta updates made outside the
        server. The previous actor set is killed once its last
        generation is released."""
        import os

        with self._extend_lock:
            if not os.path.exists(os.path.join(self.index_dir, "stats.json")):
                raise FileNotFoundError(f"{self.index_dir} has no built index")
            self._install(ShardedQueryService(self.index_dir, num_actors=self.num_actors))
            return {"n_docs": int(self.service.n_docs),
                    "generation": self.service.generation}

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "IndexHTTPServer":
        self._thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        # shutdown() waits for serve_forever, so only after start()
        if self._thread:
            self.httpd.shutdown()
            self._thread.join(timeout=5)
        self.httpd.server_close()
        if self.service is not None:
            self.service.shutdown()
        if self._ivf is not None:
            self._ivf.close()
