#!/usr/bin/env python3
"""End-to-end benchmark of the engine: build, HTTP search and ingest.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --smoke

Every run is one fresh life of the system on a generated corpus: a Ray
session (``num_cpus`` = the CPUs this process may use), a full index
build, an in-process ``IndexHTTPServer(num_actors=2)`` over it, and a
single client running a closed loop over one HTTP connection for
``--seconds`` seconds with the workload's query mix. That window is
cut into slices, with the run's other BUILDS - 1 builds and its EXTENDS
``/extend`` calls between them. Outputs are checked against the
benchmark's own brute-force BM25 after that.

Work is measured as CPU time (``CpuMeter``), scaled by a fixed reference
job timed all through the run (``reference_cpu_s``): on a shared host the
wall-clock figures stretch with other tenants' load from run to run, so
they are printed for reference but are not the gated metrics.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` records spans around each layer's entry points (every
other search untraced, so the difference is the tracing overhead),
replays the window's queries through the in-process layers and prints
the per-layer metrics. ``--smoke`` is a tiny traced run that prints
both sets. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import corpus as gen  # noqa: E402
from perfbench.oracle import Oracle, make_queries, shape  # noqa: E402
from perfbench.tracing import Tracer, instrument  # noqa: E402

# The query mix of each workload's search window. Every run also builds
# the index and ingests with /extend between search slices, so build and
# extend metrics come from both workloads.
WORKLOADS = {"serve-hot": "hot", "serve-tail": "tail"}
N_DOCS, SMOKE_DOCS = 2500, 300
# 4 shards (2 per actor): bench.py's 16 make each of a run's builds ~1.6x
# slower. No hot-term salting; sampled termstats (the exact
# termstats merge makes each /extend a vocabulary-wide shuffle).
BUILD_CONFIG = {"num_shards": 4, "hot_df_threshold": 1 << 30, "exact_termstats": False}
NUM_ACTORS = 2
TOP_K = 10
N_QUERIES = 2_000
# Two builds and one /extend per run keep 4 + 22 runs per workload within
# 3,420 s even while the host runs slow (a run takes 40-70 s).
BUILDS = 2  # full builds per run: setup_s takes their median, build_docs_per_cpu_s the least
WARMUP = 20  # searches before the window
SEARCH_BLOCK = 40  # window searches per CPU reading
EXTENDS = 1  # /extend calls per run
REPLAY_MAX = 200
# Ray's AF_UNIX sockets live under the temp dir and their paths may not
# exceed 107 bytes; "/session_<date>_<pid>/sockets/plasma_store" takes ~63.
RAY_TMP_MAX = 44
CLK_TCK = os.sysconf("SC_CLK_TCK")
# CPU seconds of reference_cpu_s's job that the CPU metrics are scaled to:
# a round figure; on a 4-vCPU Xeon VM the job takes 0.6-1.0 s
REFERENCE_CPU_S = 1.0


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS / OMP_THREAD_LIMIT cap the
    CPUs this process may use."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


def _warm(batch):
    import information_retrieval_images_ray.pipelines.build  # noqa: F401

    return _reference_batch(batch)


def start_ray(work: str) -> None:
    import ray
    from ray.data import DataContext

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    tmp = next((d for d in (os.path.join(work, "ray"), os.path.join(ROOT, ".pbr"))
                if len(d) <= RAY_TMP_MAX), None)
    if tmp:
        shutil.rmtree(tmp, ignore_errors=True)  # earlier runs' session logs
    else:
        print("checkout path too long for Ray sockets; using Ray's default temp dir",
              file=sys.stderr)
    ray.init(address="local", num_cpus=nproc(), object_store_memory=256 << 20,
             include_dashboard=False, logging_level="ERROR", log_to_driver=False,
             _temp_dir=tmp)
    DataContext.get_current().enable_progress_bars = False
    # spawn a worker and import the build's modules in it before any build,
    # and run the reference job's code once so that its first timing is warm
    ray.data.range(8, override_num_blocks=1).map_batches(_warm, batch_format="numpy").materialize()


def process_tree(root: int) -> list[int]:
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            children[ppid].append(int(entry))
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children[p])
    return out


def machine_cpu_s() -> float:
    """CPU seconds spent on this machine so far: user, nice, system, irq
    and softirq time of every CPU in ``/proc/stat``; idle, iowait and
    steal (time another tenant had the CPU) are left out."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return sum(int(fields[i]) for i in (1, 2, 3, 6, 7)) / CLK_TCK


class CpuMeter:
    """CPU time spent around a piece of work: this process (client,
    HTTP server, hydration) and the rest of the machine (the Ray
    processes, including workers that exit before they could be read).
    It stretches far less than wall-clock time with other tenants' load
    on a shared host; it assumes nothing else busy runs on the machine."""

    def read(self) -> tuple[float, float]:
        return time.process_time(), machine_cpu_s()

    def since(self, before: tuple[float, float]) -> tuple[float, float]:
        """(this process, the rest of the machine) in CPU seconds."""
        own, total = self.read()
        return own - before[0], max(0.0, total - before[1] - (own - before[0]))


def iqm(values: list[float]) -> float:
    """Mean of the middle half: the median's robustness without its
    coarse steps when each value is a count of clock ticks."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def _reference_batch(batch: dict) -> dict:
    """Fixed Python and numpy work that uses none of the engine's code."""
    words = [f"get{i % 97}User_{i % 13}Name" for i in batch["id"].tolist() for _ in range(20)]
    counts: dict[str, int] = {}
    for w in words:
        for part in re.findall(r"[A-Za-z][a-z]*|\d+", w):
            counts[part.lower()] = counts.get(part.lower(), 0) + 1
    order = np.argsort(np.array(list(counts.values())) * 7919 % 104729)
    return {"id": batch["id"], "n": np.full(len(batch["id"]), len(order))}


def reference_cpu_s(meter: CpuMeter) -> float:
    """CPU seconds of a fixed Ray Data job that runs none of the engine's
    code, so it moves only with the host's speed."""
    import ray

    before = meter.read()
    ray.data.range(4000, override_num_blocks=4).map_batches(
        _reference_batch, batch_format="numpy").materialize()
    return sum(meter.since(before))


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (VmHWM), leaving out idle
    pooled Ray workers: how many of those Ray keeps varies run to run."""
    total_kb = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::IDLE"):
                    continue
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_ray(timeout: float = 20.0) -> None:
    """Shut Ray down and wait until every process it started is gone."""
    import ray

    pids = process_tree(os.getpid())[1:]
    ray.shutdown()
    for sig_deadline in (timeout, 10.0):
        deadline = time.monotonic() + sig_deadline
        while time.monotonic() < deadline:
            try:
                while os.waitpid(-1, os.WNOHANG)[0] > 0:
                    pass
            except ChildProcessError:
                pass
            pids = [p for p in pids if _alive(p)]
            if not pids:
                return
            time.sleep(0.1)
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    raise RuntimeError(f"processes still running after shutdown: {pids}")


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def build(corpus_dir: str, index_dir: str, tracer: Tracer) -> dict:
    """Full build; returns timings and the index's layer figures."""
    import pyarrow.dataset as pads

    from information_retrieval_images_ray.pipelines import build as build_mod
    from information_retrieval_images_ray.sources import corpus_source

    t0 = time.perf_counter()
    ds = corpus_source.assign_dense_doc_ids(corpus_source.read_code_corpus(corpus_dir))
    t1 = time.perf_counter()
    build_mod.build_index(ds, index_dir, source_files=corpus_source.corpus_files(corpus_dir),
                          **BUILD_CONFIG)
    t2 = time.perf_counter()
    with open(os.path.join(index_dir, "manifest.json")) as f:
        entries = json.load(f)["entries"]
    seg = pads.dataset(os.path.join(index_dir, "segments"), format="parquet",
                       partitioning="hive").to_table(columns=["df_local"])
    return {
        "assign_s": t1 - t0,
        "build_s": t2 - t0,
        "phases": {
            "docterms": entries["docterms"]["duration_s"],
            "termstats": entries["termstats"]["duration_s"],
            "segments": max(e["pipeline_duration_s"] for k, e in entries.items()
                            if k.startswith("segment:")),
            "docmeta": entries["docmeta"]["duration_s"],
        },
        "bytes": {p: dir_bytes(os.path.join(index_dir, p))
                  for p in ("docterms", "segments", "docmeta")},
        "index_bytes": dir_bytes(index_dir),
        "postings": int(seg["df_local"].to_numpy().sum()),
        "segment_rows": seg.num_rows,
    }


class Client:
    """One HTTP connection, one request in flight; every operation is logged."""

    def __init__(self, port: int, tracer: Tracer):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=150)
        self.tracer = tracer
        self.ops: list[dict] = []

    def _post(self, path: str, body: dict) -> tuple[int, object]:
        try:
            self.conn.request("POST", path, body=json.dumps(body),
                              headers={"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            status, data = resp.status, resp.read()
            return status, json.loads(data) if status == 200 else data[:200]
        except (OSError, http.client.HTTPException, ValueError) as e:
            self.conn.close()
            return -1, repr(e)

    def op(self, kind: str, path: str, body: dict, traced: bool, **log) -> dict:
        self.tracer.enabled = traced
        n = len(self.ops)
        with self.tracer.span(f"client.{kind}", request=n):
            t0 = time.perf_counter()
            status, payload = self._post(path, body)
            t1 = time.perf_counter()
        self.tracer.enabled = False
        rec = {"n": n, "kind": kind, "latency": t1 - t0, "status": status,
               "payload": payload, "traced": traced, **log}
        self.ops.append(rec)
        return rec

    def search(self, query: str, terms: list[str], traced: bool, kind: str = "search") -> dict:
        return self.op(kind, "/search", {"query": query, "limit": TOP_K, "hydrate": True},
                       traced, query=query, terms=terms)

    def extend(self, c: gen.Corpus, number: int, traced: bool, meter: CpuMeter) -> None:
        """One /extend, logged with the CPU time it took, then a search
        for the delta's marker token."""
        docs, ptr, idents, marker = gen.extend_delta(c, number)
        before = meter.read()
        rec = self.op("extend", "/extend", {"docs": docs}, traced,
                      delta=(docs, ptr, idents, marker))
        rec["cpu"] = meter.since(before)
        self.search(marker, [marker], traced, kind="marker")


def check(oracle: Oracle, ops: list[dict]) -> tuple[int, list[str]]:
    """Replays the log against the oracle; returns (failed ops, first errors)."""
    failed, errors = 0, []
    for op in ops:
        err = None
        if op["status"] != 200:
            err = f"HTTP {op['status']}: {op['payload']!r}"
        elif op["kind"] == "extend":
            docs, ptr, idents, marker = op["delta"]
            oracle.add_delta(docs, ptr, idents, marker)
            got = op["payload"]
            if got.get("added") != len(docs) or got.get("n_docs") != oracle.n_docs:
                err = f"extend returned {got!r}, want added={len(docs)} n_docs={oracle.n_docs}"
        else:
            err = oracle.check(op["terms"], op["payload"], TOP_K) or \
                oracle.check_hydration(op["payload"])
            if op["kind"] == "marker" and not err and not op["payload"]:
                err = "marker not searchable after /extend returned"
        if err:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {op['n']} ({op['kind']} {op.get('query', '')!r}): {err}")
    return failed, errors


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def timed_build(corpus_dir: str, index_dir: str, tracer: Tracer, meter: CpuMeter) -> dict:
    """A full build into an empty ``index_dir``, with its CPU seconds."""
    shutil.rmtree(index_dir, ignore_errors=True)
    before = meter.read()
    b = build(corpus_dir, index_dir, tracer)
    b["cpu_s"] = sum(meter.since(before))
    return b


def run(workload: str, seed: int, seconds: float, trace: bool, n_docs: int,
        smoke: bool = False) -> dict:
    # imported before anything starts, so no build pays for the imports and
    # a checkout without the engine fails here
    import pyarrow.dataset  # noqa: F401

    import information_retrieval_images_ray.pipelines.build  # noqa: F401
    import information_retrieval_images_ray.sources.corpus_source  # noqa: F401
    from information_retrieval_images_ray.pipelines.serving_http import IndexHTTPServer

    work = os.path.join(ROOT, ".perfbench_work")
    index_dir, spare_dir = os.path.join(work, "index"), os.path.join(work, "index_spare")
    shutil.rmtree(index_dir, ignore_errors=True)
    os.makedirs(work, exist_ok=True)

    c, corpus_dir = gen.load_or_generate(os.path.join(ROOT, ".perfbench_cache"), seed, n_docs)
    oracle = Oracle(c)
    print("corpus:", json.dumps(shape(oracle)))
    tail_df = (5, max(10, min(200, n_docs // 20)))
    queries = make_queries(oracle, WORKLOADS[workload], seed, N_QUERIES, tail_df)
    content_bytes = sum(len(t.encode()) for t in c.rows["content"].to_pylist())

    tracer = Tracer()
    meter = CpuMeter()
    blocks: list[tuple[float, float]] = []  # per-search CPU of each block of window searches
    builds: list[dict] = []
    m: dict[str, float] = {}
    with instrument(tracer) if trace else contextlib.nullcontext():
        t0 = time.perf_counter()
        start_ray(work)
        try:
            ray_s = time.perf_counter() - t0
            server = None
            try:
                refs = [reference_cpu_s(meter)]
                tracer.enabled = trace
                builds.append(timed_build(corpus_dir, index_dir, tracer, meter))
                t = time.perf_counter()
                server = IndexHTTPServer(index_dir, num_actors=NUM_ACTORS).start()
                start_s = time.perf_counter() - t
                tracer.enabled = False
                client = Client(server.port, tracer)
                for text, terms in queries[:WARMUP]:
                    client.search(text, terms, False, kind="warmup")
                # The search window is cut into slices with the other builds
                # (into a second directory, the server keeps serving) and the
                # /extend calls between them, so every metric's samples are
                # spread over the whole run rather than one stretch of it.
                between = [step for pair in itertools.zip_longest(
                    ["build"] * (BUILDS - 1), ["extend"] * EXTENDS) for step in pair if step]
                extends = itertools.count()
                for i in range(len(between) + 1):
                    slice_start = time.perf_counter()
                    while time.perf_counter() - slice_start < seconds / (len(between) + 1):
                        before = meter.read()
                        for _ in range(SEARCH_BLOCK):
                            text, terms = queries[len(client.ops) % len(queries)]
                            client.search(text, terms, trace and len(client.ops) % 2 == 0)
                        blocks.append(tuple(x / SEARCH_BLOCK for x in meter.since(before)))
                    refs.append(reference_cpu_s(meter))
                    if i == len(between):
                        break
                    tracer.enabled = trace
                    if between[i] == "build":
                        builds.append(timed_build(corpus_dir, spare_dir, tracer, meter))
                    else:
                        client.extend(c, next(extends), trace, meter)
                    tracer.enabled = False
                replayed = replay(index_dir, client.ops) if trace else {}
                rss = peak_rss_mb(process_tree(os.getpid()))
                shards_final = _num_shards(index_dir)
            finally:
                if server is not None:
                    server.close()
        finally:
            stop_ray()

    failed, errors = check(oracle, client.ops)
    for e in errors:
        print("check failed:", e)
    if smoke:  # the check must catch a result whose scores are off by 0.1%
        first = next(op for op in client.ops if op["kind"] == "search" and op["payload"])
        bad = dict(first, payload=[dict(h, score=h["score"] * 1.001) for h in first["payload"]])
        flagged = check(Oracle(c), [bad])[0] == 1
        print("oracle flags a perturbed result:", flagged)
        failed += not flagged
    searches = [op for op in client.ops if op["kind"] == "search"]
    lat = [op["latency"] for op in searches]
    ext = [op for op in client.ops if op["kind"] == "extend"]
    b = builds[0]
    # CPU time, too, stretches when the host is slow (a neighbour on the
    # core lowers the instructions per cycle), for minutes at a time; the
    # reference job samples that speed all through the run, and CPU costs
    # are scaled to a host on which it takes REFERENCE_CPU_S.
    slowdown = statistics.median(refs) / REFERENCE_CPU_S
    # Slowness only ever adds CPU time, so of a run's few builds (or
    # extends) the least is the closest to the work itself.
    cpu = {
        "build_s": min(x["cpu_s"] for x in builds),
        "search_ms": iqm([sum(x) for x in blocks]) * 1e3,
        "extend_s": min(sum(op["cpu"]) for op in ext),
    }
    m["setup_s"] = ray_s + statistics.median(x["build_s"] for x in builds) + start_s
    m["build_docs_per_cpu_s"] = n_docs / cpu["build_s"] * slowdown
    m["index_bytes_per_content_byte"] = b["index_bytes"] / content_bytes
    m["search_cpu_ms"] = cpu["search_ms"] / slowdown
    m["extend_cpu_s"] = cpu["extend_s"] / slowdown
    m["peak_rss_mb"] = rss
    # wall-clock figures, printed but not gated: on a shared host they
    # stretch with the other tenants' load (see README.md)
    wall = {
        "build_docs_per_s": (statistics.median(n_docs / x["build_s"] for x in builds), "docs/s"),
        "search_p50_ms": (pct(lat, 50) * 1e3, "ms"),
        "search_p90_ms": (pct(lat, 90) * 1e3, "ms"),
        "search_qps": (len(lat) / sum(lat), "1/s"),
        "extend_p50_s": (statistics.median(op["latency"] for op in ext), "s"),
    }
    print(f"set-up: ray {ray_s:.3f}s, builds "
          + ", ".join(f"{x['build_s']:.3f}s ({x['cpu_s']:.2f} CPU s)" for x in builds)
          + f", server {start_s:.3f}s; window {len(searches)} searches in {len(blocks)} blocks, "
          f"{len(ext)} extends")
    print(f"unscaled CPU: build {cpu['build_s']:.3f} s, search {cpu['search_ms']:.3f} ms, "
          f"extend {cpu['extend_s']:.3f} s; reference job {slowdown * REFERENCE_CPU_S:.3f} CPU s "
          f"(median of {len(refs)})")
    for name, (value, unit) in wall.items():
        print(f"wall {name}: {value:.6g} {unit}")
    print(f"failed_ops_ratio: {failed / len(client.ops)} "
          f"({failed} of {len(client.ops)} operations)")

    if trace:
        m.update(per_layer(tracer, b, replayed, c, searches, ext, shards_final))
        m["cpu.local_ms_per_search"] = iqm([x[0] for x in blocks]) * 1e3
        m["cpu.ray_ms_per_search"] = iqm([x[1] for x in blocks]) * 1e3
        m["cpu.extend_local_s"] = statistics.median(op["cpu"][0] for op in ext)
        trace_path = os.path.join(work, f"trace-{workload}-s{seed}.jsonl")
        tracer.write(trace_path)
        print("spans written to", os.path.relpath(trace_path, ROOT))

    for d in (index_dir, spare_dir):
        shutil.rmtree(d, ignore_errors=True)
    return {"correct": failed == 0, "attempted": len(client.ops), "failed": failed,
            "metrics": m}


def per_layer(tracer: Tracer, b: dict, replayed: dict, c: gen.Corpus, searches: list[dict],
              ext: list[dict], shards_final: int) -> dict[str, float]:
    import pyarrow as pa
    import pyarrow.compute as pc

    from information_retrieval_images_ray.stages.tokenize import TokenizeStage

    n_docs = c.rows.num_rows
    traced = [op for op in searches if op["traced"]]
    untraced = [op for op in searches if not op["traced"]]
    http_search = tracer.by_request("http.search")
    topk = tracer.by_request("service.topk")
    http_extend = tracer.by_request("http.extend")
    ext_index = tracer.by_request("extend.index")
    stage = TokenizeStage()
    rows = c.rows.append_column("doc_id", pa.array(np.arange(n_docs), pa.uint64()))
    t = time.perf_counter()
    tokens = sum(pc.sum(stage(rows.slice(lo, 500))["doc_len"]).as_py() or 0
                 for lo in range(0, n_docs, 500))
    tok_s = time.perf_counter() - t
    return {
        "corpus_source.assign_ids_s": b["assign_s"],
        "build.docterms_s": b["phases"]["docterms"],
        "build.termstats_s": b["phases"]["termstats"],
        "build.segments_s": b["phases"]["segments"],
        "build.docmeta_s": b["phases"]["docmeta"],
        "tokenize.docs_per_s": n_docs / tok_s,
        "tokenize.tokens": tokens,
        "postings.count": b["postings"],
        "postings.segment_rows": b["segment_rows"],
        "postings.bytes_per_posting": b["bytes"]["segments"] / b["postings"],
        "index.docterms_bytes": b["bytes"]["docterms"],
        "index.segments_bytes": b["bytes"]["segments"],
        "index.docmeta_bytes": b["bytes"]["docmeta"],
        "reader.load_s": replayed["load_s"],
        "reader.bmw_p50_ms": pct(replayed["bmw"], 50) * 1e3,
        "reader.bmw_p99_ms": pct(replayed["bmw"], 99) * 1e3,
        "reader.taat_p50_ms": pct(replayed["taat"], 50) * 1e3,
        "hydrate.p50_ms": pct(tracer.durations("hydrate"), 50) * 1e3,
        "service.start_s": statistics.median(tracer.durations("service.start")),
        "service.topk_p50_ms": pct(list(topk.values()), 50) * 1e3,
        "service.rpc_p50_ms": pct([topk[n] - t for n, t in replayed["bmw_by_request"].items()
                                   if n in topk], 50) * 1e3,
        "http.search_p50_ms": pct(list(http_search.values()), 50) * 1e3,
        "http.overhead_p50_ms": pct([op["latency"] - http_search[op["n"]]
                                     for op in traced if op["n"] in http_search], 50) * 1e3,
        "extend.index_p50_s": statistics.median(ext_index.values()),
        "extend.pool_swap_p50_s": statistics.median(
            http_extend[n] - t for n, t in ext_index.items()),
        "extend.shards_final": shards_final,
        "extend.added_ratio": sum(op["payload"].get("added", 0) for op in ext
                                  if op["status"] == 200)
        / sum(len(op["delta"][0]) for op in ext),
        "trace.overhead_ms": (pct([op["latency"] for op in traced], 50)
                              - pct([op["latency"] for op in untraced], 50)) * 1e3,
        "trace.spans": len(tracer.spans),
    }


def _num_shards(index_dir: str) -> int:
    with open(os.path.join(index_dir, "stats.json")) as f:
        return int(json.load(f)["num_shards"])


def replay(index_dir: str, ops: list[dict]) -> dict:
    """The window's traced queries again, straight into an in-process
    reader: block-max WAND and exhaustive TAAT."""
    from information_retrieval_images_ray.pipelines.query import IndexReader

    t = time.perf_counter()
    reader = IndexReader(index_dir)
    out = {"load_s": time.perf_counter() - t, "bmw": [], "taat": [], "bmw_by_request": {}}
    for op in [op for op in ops if op["kind"] == "search" and op["traced"]][:REPLAY_MAX]:
        t = time.perf_counter()
        reader.search_bmw(op["query"], TOP_K)
        t_bmw = time.perf_counter()
        reader.search_taat(op["query"], TOP_K)
        t_taat = time.perf_counter()
        out["bmw"].append(t_bmw - t)
        out["taat"].append(t_taat - t_bmw)
        out["bmw_by_request"][op["n"]] = t_bmw - t
    return out


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"tiny traced run ({SMOKE_DOCS} docs, 2 s, serve-tail) printing every metric")
    args = ap.parse_args()
    if args.smoke:
        workload, seconds, trace, n_docs = "serve-tail", 2.0, True, SMOKE_DOCS
        kinds = ("end_to_end", "per_layer")
    elif args.workload:
        workload, seconds, trace, n_docs = args.workload, args.seconds, bool(args.trace), N_DOCS
        kinds = ("per_layer",) if trace else ("end_to_end",)
    else:
        ap.error("--workload or --smoke is required")
    units = {name: unit for kind in kinds for name, unit in declared(kind).items()}
    res = run(workload, args.seed, seconds, trace, n_docs, smoke=args.smoke)
    for name, unit in units.items():
        print(f"{name}: {res['metrics'][name]:.6g} {unit}")
    res["metrics"] = {name: {"value": res["metrics"][name], "unit": unit}
                      for name, unit in units.items()}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
