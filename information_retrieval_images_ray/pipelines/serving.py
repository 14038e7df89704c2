"""Query serving: a pool of replica actors, each holding the whole
index (north_star: "served by a stateful actor pool holding index
shards"), behind a router with a page cache.

This is the one place the engine drops to raw ``@ray.remote`` actors:
the pool outlives every request and derives new generations in place
(below), which a Dataset ``map_batches`` actor pool cannot express
(that is ``QueryScorer``'s throughput path).

Every query mode runs one path, ``IndexReader.topk`` (query.py), the
serial reader's own; the router adds a page cache in front of it:

1. **compile**: the caller turns a request into a plan
   (``query.compile_plan``: scored terms with boosts or an expansion
   spec, must / must-not terms, an optional positional verifier,
   after / collapse / exclude_doc, or a feedback step);
2. **cache**: ``ShardedQueryService.topk`` looks each plan up in its
   generation's page cache, keyed by the plan without ``qid``
   (sorted-key JSON), ``k``, ``offset`` and the ("col", value) filter.
   A hit is answered with no round trip. A plan with a precomputed
   mask filter is not cached. Scope: one generation, which never
   changes; ``extended``, ``deleted`` and a fresh service start
   empty, so no page is served under other stats or tombstones.
   Bound: ``PAGE_CACHE_ROWS`` ranked rows, least recently used pages
   evicted first; a larger page is not stored;
3. **one frame**: the misses of a batch, deduplicated, go to ONE
   replica, the next in turn (round-robin), as ONE frame on a
   persistent TCP connection to it (``_call``): the pickled
   (generation, [(reader method, *args), ...]) request one way, a
   status byte and the pickled results (or the raised exception) the
   other. The replica runs ``IndexReader.topk`` on its view of the
   generation: feedback (PRF's base top-k and docterms read included),
   dictionary expansion, exact global df from its own shards, execute,
   and the rank or positional verify. No Ray task carries a search: a
   bare Ray actor call cost the machine about 1.2 ms of CPU, a frame on
   a kept-open socket about 0.05 ms. Ray still places, starts and kills
   the replicas and carries the control calls (``address``,
   ``attach``, ``retire``, ``counters``).

Facets, range facets, significant terms, explain, term vectors and a
stand-alone expansion are one frame to one replica each as well, so no
search makes more than one round trip, and none when its page is
cached.

Every frame reads one immutable generation, so a frame that fails in
transport (the replica died, its connection broke or was refused) is
sent once more, to the next replica, and counted (``retries``). An
exception raised by the reader comes back as itself and is never
retried. A connection must present the pool's 32-byte secret (made per
actor set, handed to each replica's constructor through Ray) before
the replica unpickles any byte of it; one that does not is closed
unread.

A ``ShardedQueryService`` is one immutable generation of the served
index: the actor handles, ``n_docs`` / ``avgdl`` / shard bounds
(``stats``), the tombstones, the docmeta table (held in memory sorted
by doc_id, which ``serving_http.hydrate_hits`` serves from with no
disk read) and the page cache. A request takes one generation and
uses it for every call it makes; each frame names that generation, and a replica keeps one ``IndexReader`` view per live
generation, the views sharing the loaded shards. Constructing the
service starts a fresh actor set (the HTTP server does that at start
and on /reload). ``extended`` and ``deleted`` derive the next
generation on the SAME actors: after an extend every actor loads the
new shards and the router appends their docmeta rows; a delete only
swaps the tombstones (stats stay stale until compaction). When the
last reference to a generation drops, its actor views are retired
with the partials cached under an avgdl no live view uses, and an
actor set is killed, its router sockets closed, once no live
generation uses it.

Replicas, not partitions: every actor holds every shard, so memory
per actor is the whole index (postings decoded, see
``query._ShardIndex``) and more actors add throughput and a retry
target, not capacity. Rank/score identity with a serial
``IndexReader`` holds by construction — an actor runs its own
``topk`` — and is asserted in tests/test_serving.py.

Reference analogue: the Milvus standalone server holding the
collection while the app queries it over the wire
(/root/reference/vector_db.py:12-31, server.py:128-177) — here the
"server" is N replica actors and the router is a thin library call.
"""

from __future__ import annotations

import copy
import glob
import hmac
import itertools
import json
import os
import pickle
import secrets
import socket
import struct
import threading
import weakref
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import ray

from .query import IndexReader, PlanCompiler, check_page, shard_docmeta_files

# generation ids, unique per process: an actor's views are keyed by
# them, and a server never reports the same id for two generations,
# not even across /reload's fresh actor sets
_GENERATIONS = itertools.count(1)

# ranked rows one generation's page cache holds at most (an empty page
# counts as one row)
PAGE_CACHE_ROWS = 50_000

# the fields of a ranked row, in ``IndexReader.topk``'s order
_ROW_FIELDS = ("qid", "rank", "doc_id", "score", "group", "group_n")

# a frame on a replica connection: a status byte (a reply's: 0 results,
# 1 a raised exception; 0 on a request) and the payload's length, then
# the pickled payload
_HEADER = struct.Struct("!BQ")
# bytes of the per-pool secret a connection presents first
_SECRET_BYTES = 32
# seconds a router connection may take to connect, and a replica
# connection to present the secret: a silent peer holds no thread longer
_HANDSHAKE_S = 10.0


def _docmeta_table(files: list[str]) -> pa.Table:
    """The docmeta rows of ``files``, sorted by an int64 ``doc_id``
    that comes first, without the hive ``shard`` key. Its columns are
    the union over the files."""
    import pyarrow.parquet as pq

    if not files:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    t = pa.concat_tables([pq.read_table(f) for f in files],
                         promote_options="permissive")
    rest = [c for c in t.column_names if c not in ("doc_id", "shard")]
    t = pa.table([t["doc_id"].cast(pa.int64())] + [t[c] for c in rest],
                 names=["doc_id", *rest])
    return t.sort_by("doc_id").combine_chunks()


def load_docmeta(index_dir: str) -> pa.Table:
    """The whole docmeta table in memory (see ``_docmeta_table``): an
    extend that brought columns the base build lacked leaves them null
    on the base docs."""
    return _docmeta_table(sorted(glob.glob(
        os.path.join(index_dir, "docmeta", "**", "*.parquet"), recursive=True)))


def _page_key(plan: dict, k: int, offset: int, doc_filter) -> tuple | None:
    """The page cache key of ``plan``: the plan without ``qid`` as
    sorted-key JSON, ``k``, ``offset`` and the filter as a tuple. None
    (not cached) for a precomputed mask filter, or for a plan or
    filter value that does not serialize or hash. Plans that differ
    only in term order share a key: the scorer adds terms in sorted
    order, so their pages are bitwise equal."""
    if isinstance(doc_filter, np.ndarray):
        return None
    try:
        key = (json.dumps({kk: v for kk, v in plan.items() if kk != "qid"},
                          sort_keys=True),
               int(k), int(offset), None if doc_filter is None else tuple(doc_filter))
        hash(key)
    except TypeError:
        return None
    return key


class _PageCache:
    """One generation's ranked pages: ``_page_key`` -> a tuple of row
    tuples without the qid, least recently used evicted first once
    more than ``PAGE_CACHE_ROWS`` rows are held. Counts lookups that
    found a page (``hits``) and that did not (``misses``). A lock
    guards it for the threaded HTTP server."""

    def __init__(self):
        self.pages: OrderedDict = OrderedDict()
        self.rows = self.hits = self.misses = 0
        self.lock = threading.Lock()

    def get(self, key) -> tuple | None:
        with self.lock:
            page = self.pages.get(key)
            if page is None:
                self.misses += 1
            else:
                self.hits += 1
                self.pages.move_to_end(key)
            return page

    def put(self, key, page: tuple) -> None:
        size = len(page) or 1
        with self.lock:
            if size > PAGE_CACHE_ROWS or key in self.pages:
                return
            self.pages[key] = page
            self.rows += size
            while self.rows > PAGE_CACHE_ROWS:
                self.rows -= len(self.pages.popitem(last=False)[1]) or 1

    def counters(self) -> dict:
        with self.lock:
            return {"hits": self.hits, "misses": self.misses, "rows": self.rows}


def _send(sock: socket.socket, status: int, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(status, len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Exactly ``n`` bytes; EOFError if the peer closes first."""
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = sock.recv_into(view)
        if not got:
            raise EOFError("replica connection closed")
        view = view[got:]
    return buf


def _recv(sock: socket.socket) -> tuple[int, bytearray]:
    """One frame: (status, payload)."""
    status, size = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    return status, _recv_exact(sock, size)


def _pickled_error(e: Exception) -> bytes:
    """``e`` pickled, or a RuntimeError with its type and message when
    it does not pickle."""
    try:
        return pickle.dumps(e, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(e).__name__}: {e}"))


@ray.remote
class ShardQueryActor:
    """One replica of the whole index, with one ``IndexReader`` view
    per live pool generation; the views share every loaded shard.

    Searches do not come through Ray: the replica listens on a TCP port
    of its node (``address``) and serves each accepted connection in a
    daemon thread. A connection first presents ``secret``; a wrong one
    is closed before any frame is read. Each frame runs on the view of
    the generation it names, so a request that started before an attach
    neither scores nor counts df in the shards attached after it.
    Frames and the Ray control methods (``attach``, ``retire``,
    ``counters``) take one lock, so they run one at a time."""

    def __init__(self, index_dir: str, gen: int, secret: bytes):
        self.views = {gen: IndexReader(index_dir)}
        self.calls = 0
        self.lock = threading.Lock()
        self.secret = secret
        self.listener = socket.create_server((ray.util.get_node_ip_address(), 0))
        threading.Thread(target=self._accept, daemon=True).start()

    def address(self) -> tuple[str, int]:
        """(host, port) the replica serves frames on."""
        return self.listener.getsockname()[:2]

    def _accept(self) -> None:
        while True:
            conn, _ = self.listener.accept()
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        """Check the secret, then answer frames until the router closes
        the connection."""
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(_HANDSHAKE_S)
            try:
                if not hmac.compare_digest(_recv_exact(conn, _SECRET_BYTES), self.secret):
                    return
                conn.settimeout(None)
                while True:
                    _, frame = _recv(conn)
                    _send(conn, *self._run(frame))
            except (OSError, EOFError):  # the peer went away
                return

    def _run(self, frame: bytearray) -> tuple[int, bytes]:
        """Unpickle (generation, [(reader method name, *args), ...]),
        run each method on that generation's view; (0, the pickled list
        of results), or (1, the pickled exception)."""
        with self.lock:
            self.calls += 1
            try:
                gen, calls = pickle.loads(frame)
                view = self.views[gen]
                return 0, pickle.dumps([getattr(view, name)(*args) for name, *args in calls],
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as e:  # the router re-raises it
                return 1, _pickled_error(e)

    def attach(self, gen: int, base: int, stats: dict, shard_ids: list[int],
               tombstones: np.ndarray | None) -> None:
        """Add the view of generation ``gen``, derived from ``base``'s
        (``IndexReader.attach``: only ``shard_ids`` are read)."""
        with self.lock:
            self.views[gen] = self.views[base].attach(stats, shard_ids, tombstones)

    def retire(self, gen: int) -> None:
        """Drop the view of ``gen`` and the partials its shards cached
        under an avgdl that no live view uses."""
        with self.lock:
            view = self.views.pop(gen, None)
            if view is not None:
                live = {v.avgdl for v in self.views.values()}
                for sh in view.shards:
                    if sh is not None:
                        sh.purge(live)

    def counters(self) -> dict:
        """Live generation views, shards held, frames served
        (``calls``), the avgdls with cached partials, partial-cache hits
        and misses (over the held shards' lifetime)."""
        with self.lock:
            held = {s: sh for v in self.views.values()
                    for s, sh in enumerate(v.shards) if sh is not None}
            return {
                "views": len(self.views), "shards": sorted(held),
                "calls": self.calls,
                "partial_avgdls": sorted({key[1] for sh in held.values()
                                          for key in sh._part_cache}),
                "partial_hits": sum(sh.hits for sh in held.values()),
                "partial_misses": sum(sh.misses for sh in held.values()),
            }


def _kill(actors: list, sockets: set, lock: threading.Lock) -> None:
    with lock:
        for sock in sockets:
            sock.close()
        sockets.clear()
    if ray.is_initialized():
        for a in actors:
            ray.kill(a)


class _ActorSet:
    """The replicas of one fresh pool, shared by every generation
    derived from it: their actors, the pool's secret, each replica's
    address and idle router connections, the round-robin turn and the
    count of retried frames. A thread takes an idle connection to the
    replica or opens one, and puts it back after the reply, so no two
    threads share a socket. The actors are killed and every router
    socket is closed when the last of those generations is collected,
    or by ``ShardedQueryService.shutdown``."""

    def __init__(self, index_dir: str, gen: int, n: int):
        self.secret = secrets.token_bytes(_SECRET_BYTES)
        self.actors = [ShardQueryActor.remote(index_dir, gen, self.secret)
                       for _ in range(n)]
        # each replica's (host, port), once ``started`` has returned
        self.addresses = [a.address.remote() for a in self.actors]
        self.idle: list[list[socket.socket]] = [[] for _ in self.actors]
        self.sockets: set[socket.socket] = set()  # open ones, idle or in use
        self.lock = threading.Lock()
        self.turns = itertools.cycle(range(n))
        self.retries = 0
        self.kill = weakref.finalize(self, _kill, self.actors, self.sockets, self.lock)
        self.kill.atexit = False

    def started(self) -> None:
        """Wait until every replica has loaded the index and listens."""
        self.addresses = ray.get(self.addresses)

    def _connect(self, i: int) -> socket.socket:
        sock = socket.create_connection(self.addresses[i], timeout=_HANDSHAKE_S)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.lock:
            if not self.kill.alive:
                sock.close()
                raise ConnectionError("the replica pool was shut down")
            self.sockets.add(sock)
        return sock

    def _request(self, i: int, frame: bytes) -> tuple[int, bytearray]:
        """``frame`` on a connection to replica ``i``; its reply. A
        connection that fails is closed (one closed by ``kill`` fails at
        its next use)."""
        with self.lock:
            sock = self.idle[i].pop() if self.idle[i] else None
        fresh = sock is None
        if fresh:
            sock = self._connect(i)
        try:
            if fresh:
                sock.sendall(self.secret)
            _send(sock, 0, frame)
            reply = _recv(sock)
        except BaseException:
            with self.lock:
                self.sockets.discard(sock)
            sock.close()
            raise
        with self.lock:
            self.idle[i].append(sock)
        return reply

    def send(self, frame: bytes) -> tuple[int, bytearray]:
        """``frame`` to the next replica in turn; if that fails in
        transport, once more to the replica after it (counted in
        ``retries``)."""
        i = next(self.turns)
        try:
            return self._request(i, frame)
        except (OSError, EOFError):
            with self.lock:
                self.retries += 1
            return self._request((i + 1) % len(self.actors), frame)


def _retire(actor_set: _ActorSet, gen: int) -> None:
    """Drop generation ``gen``'s views (fire and forget)."""
    if actor_set.kill.alive and ray.is_initialized():
        for a in actor_set.actors:
            a.retire.remote(gen)


class ShardedQueryService(PlanCompiler):
    """Router over a pool of ``num_actors`` whole-index replica actors;
    one instance is one generation of the served index (see the module
    docstring). Every query method is one ``_call`` to one replica;
    ranked queries go through ``topk``, behind the generation's page
    cache."""

    def __init__(self, index_dir: str, num_actors: int = 4):
        from ..functions.tokenizer import get_tokenizer
        from .maintenance import load_tombstones

        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.n_docs = self.stats["n_docs"]
        self.tokenize = get_tokenizer(self.stats["tokenizer"])
        self.tombstones = load_tombstones(index_dir)
        self.generation = next(_GENERATIONS)
        self._pages = _PageCache()
        self._set = _ActorSet(index_dir, self.generation, max(1, num_actors))
        self._track()
        # loaded while the actors start
        self.docmeta = load_docmeta(index_dir)
        self._set.started()  # no request waits for an actor's start-up

    @property
    def actors(self) -> list:
        return self._set.actors

    def _track(self) -> None:
        weakref.finalize(self, _retire, self._set, self.generation).atexit = False

    def _call(self, *calls: tuple) -> list:
        """Run ``calls`` — (``IndexReader`` method name, *args) — on
        the next replica in turn, on its view of this generation, as ONE
        frame each way on a kept-open connection (``_ActorSet.send``: a
        transport failure is retried once on the next replica). Returns
        their results; an error raised by the reader is re-raised as
        itself, without the replica's traceback."""
        status, reply = self._set.send(
            pickle.dumps((self.generation, calls), protocol=pickle.HIGHEST_PROTOCOL))
        out = pickle.loads(reply)
        if status:
            raise out
        return out

    def _derive(self, stats: dict, tombstones: np.ndarray,
                shard_ids: list[int]) -> "ShardedQueryService":
        """The next generation on the same actors: every actor attaches
        ``shard_ids`` (and the tombstones, when they changed)."""
        nxt = copy.copy(self)
        nxt.generation = next(_GENERATIONS)
        nxt._pages = _PageCache()
        nxt.stats, nxt.n_docs = stats, stats["n_docs"]
        nxt.tombstones = tombstones
        nxt._track()  # retires any view made even if an attach fails
        send = None if tombstones is self.tombstones else tombstones
        ray.get([a.attach.remote(nxt.generation, self.generation, stats, shard_ids, send)
                 for a in self.actors])
        return nxt

    def extended(self, stats: dict) -> "ShardedQueryService":
        """The generation after an extend that committed ``stats``:
        every actor loads the new shards, and docmeta gains their rows
        (their ids lie above the old span, so it stays sorted)."""
        new_shards = list(range(self.stats["num_shards"], stats["num_shards"]))
        nxt = self._derive(stats, self.tombstones, new_shards)
        nxt.docmeta = pa.concat_tables(
            [self.docmeta, _docmeta_table(shard_docmeta_files(self.index_dir, new_shards))],
            promote_options="permissive").combine_chunks()
        return nxt

    def deleted(self, tombstones: np.ndarray) -> "ShardedQueryService":
        """The generation after a delete: ``tombstones`` replace this
        one's, everything else (stats included — they stay stale until
        compaction) is shared."""
        return self._derive(self.stats, tombstones, [])

    def counters(self) -> list[dict]:
        """``ShardQueryActor.counters`` of every actor."""
        return ray.get([a.counters.remote() for a in self.actors])

    def retries(self) -> int:
        """Frames of this actor set resent to the next replica after a
        transport failure."""
        return self._set.retries

    def page_cache_counters(self) -> dict:
        """This generation's page cache: plans answered from it
        (``hits``), plans that ran the scorer (``misses``) and the
        ranked rows it holds (``rows``)."""
        return self._pages.counters()

    def topk(self, plans: list[dict], k: int = 10, doc_filter=None,
             offset: int = 0) -> list[dict]:
        """``IndexReader.topk`` behind this generation's page cache.
        Each plan is looked up by ``_page_key``; a hit comes back as
        fresh rows carrying the caller's qid. The misses, deduplicated
        by key, run in ONE ``IndexReader.topk`` call on one actor (none
        when every plan hits) and their pages are stored. Every page is
        bitwise equal to the uncached one: the generation, and with it
        every input of the page, is fixed. Raises ValueError for a
        negative ``k`` or ``offset`` before any lookup."""
        check_page(k, offset)
        plans = self.compiled(plans)
        keys = [_page_key(p, k, offset, doc_filter) for p in plans]
        pages = [None if key is None else self._pages.get(key) for key in keys]
        misses: dict = {}  # key (an uncached plan: its index) -> plan indexes
        for i, (key, page) in enumerate(zip(keys, pages)):
            if page is None:
                misses.setdefault(i if key is None else key, []).append(i)
        if misses:
            groups = list(misses.values())
            ran: list[list[tuple]] = [[] for _ in groups]
            (rows,) = self._call(("topk", [{**plans[g[0]], "qid": j}
                                           for j, g in enumerate(groups)],
                                  k, doc_filter, offset))
            for r in rows:
                ran[r["qid"]].append(tuple(r.values())[1:])
            for g, rows in zip(groups, ran):
                page = tuple(rows)
                if keys[g[0]] is not None:
                    self._pages.put(keys[g[0]], page)
                for i in g:
                    pages[i] = page
        return [dict(zip(_ROW_FIELDS, (p["qid"], *row)))
                for p, page in zip(plans, pages) for row in page]

    def expand(self, plans: list[dict]) -> list[dict]:
        """``IndexReader.expand`` on one actor; no call when no plan
        has a pending expansion spec."""
        if not any(p["terms"] is None and p["expand"] is not None for p in plans):
            return plans
        return self._call(("expand", plans))[0]

    def topk_significant(self, queries: list[dict], k: int = 10,
                         sample_n: int = 50, doc_filter=None) -> list[dict]:
        """``IndexReader.significant_terms`` of each {"qid", "query"},
        in one call. Rows: {"qid", "rank", "term", "fg_df", "df",
        "lor"}."""
        per_q = self._call(*[("significant_terms", q["query"], k, sample_n, doc_filter)
                             for q in queries])
        return [{"qid": q["qid"], "rank": rank, **r}
                for q, rows in zip(queries, per_q)
                for rank, r in enumerate(rows, start=1)]

    def explain(self, query: str, doc_ids: list[int]) -> list[dict]:
        """``IndexReader.explain``, in one call."""
        return self._call(("explain", query, doc_ids))[0]

    def term_vectors(self, doc_ids: list[int]) -> list[dict]:
        """``IndexReader.term_vectors``, in one call."""
        return self._call(("term_vectors", doc_ids))[0]

    def facets(self, queries: list[dict], facet_cols: list[str],
               doc_filter=None) -> list[dict[str, dict[str, int]]]:
        """``IndexReader.facet_counts`` of each {"qid", "query"}, in
        one call: one {col: {value: n}} per query, aligned with
        ``queries``."""
        return self._call(*[("facet_counts", q["query"], facet_cols, doc_filter)
                            for q in queries])

    def length_facets(self, queries: list[dict], edges: list[int],
                      doc_filter=None) -> list[list[dict]]:
        """``IndexReader.length_facets`` of each {"qid", "query"}, in
        one call: one ascending [{lo, n}, ...] per query, aligned with
        ``queries``."""
        return self._call(*[("length_facets", q["query"], edges, doc_filter)
                            for q in queries])

    def shutdown(self) -> None:
        """Kill the actors and close the router's sockets to them now,
        for every generation that shares them."""
        self._set.kill()
