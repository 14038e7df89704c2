"""In-memory spans recorded around calls into the engine's layers.

Spans are recorded only from the benchmark's own code: ``instrument``
wraps the public entry points of each layer for the length of a traced
run and restores them afterwards. The client runs a closed loop with
one request in flight, so a span opened on a server thread with no
open span of its own belongs to the client operation in flight.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: tuple[int, int] | None = None  # (span id, request id) of the client op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        if stack:
            parent, req = stack[-1], self._op[1] if self._op else request
        elif request is not None:
            parent, req = None, request
        else:
            parent, req = self._op if self._op else (None, None)
        sid = next(self._ids)
        root = not stack and request is not None
        if root:
            self._op = (sid, request)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._op = None
            self.spans.append({"id": sid, "parent": parent, "request": req,
                               "name": name, "start": start, "end": end})

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def by_request(self, name: str) -> dict[int, float]:
        """request id -> summed duration of its spans called ``name``."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name and s["request"] is not None:
                out[s["request"]] += s["end"] - s["start"]
        return out

    def self_times(self) -> dict[int, float]:
        """span id -> duration minus the time its children cover."""
        children: dict[int, list[dict]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        out = {}
        for s in self.spans:
            covered, cur_end = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], cur_end), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cur_end = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "self": selfs[s["id"]]}) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record a span around each layer's entry point while active."""
    from information_retrieval_images_ray.pipelines import build, serving, serving_http
    from information_retrieval_images_ray.sources import corpus_source

    targets = [
        (corpus_source, "assign_dense_doc_ids", "corpus_source.assign_ids"),
        (build, "build_index", "build.build_index"),
        # IndexHTTPServer.extend imports extend_index from the module at call time
        (build, "extend_index", "extend.index"),
        (serving.ShardedQueryService, "__init__", "service.start"),
        (serving.ShardedQueryService, "topk", "service.topk"),
        (serving_http, "hydrate_hits", "hydrate"),
        (serving_http.IndexHTTPServer, "search", "http.search"),
        (serving_http.IndexHTTPServer, "extend", "http.extend"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
