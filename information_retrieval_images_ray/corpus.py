"""Deterministic synthetic source-code corpus (FIXTURES.md §1).

Schema exactly matches BASELINE.json ``input_hint``:
``(repo: string, path: string, commit: string, lang: string,
content: string)``. Identifier vocabulary is Zipf-distributed so
stopword-like hot terms exist (long per-shard postings); names mix
camelCase and snake_case (exercising the code-aware tokenizer); a few
exact-duplicate, empty and unicode-bearing docs exercise edge paths.

Everything is seeded — same (n_docs, seed) in, byte-identical Parquet
out. No wall-clock, no network. Plays the role of the reference's
frozen input DBs (/root/reference/labels_raghav.db) for golden fixtures.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_LANGS = ["python", "java", "go", "rust", "js", "c"]
_EXT = {"python": "py", "java": "java", "go": "go", "rust": "rs", "js": "js", "c": "c"}

# Base vocabulary the Zipf distribution draws from. Mixed-style
# identifiers so compound/subtoken emission matters.
_STEMS = [
    "get", "set", "user", "name", "index", "query", "token", "parse",
    "read", "write", "buffer", "stream", "hash", "merge", "sort", "block",
    "score", "term", "doc", "list", "node", "tree", "map", "filter",
    "batch", "shard", "salt", "codec", "delta", "varbyte", "posting",
    "corpus", "lexer", "cursor", "heap", "probe", "window", "offset",
    "commit", "branch", "config", "server", "client", "retry", "cache",
]


def _ident(rng: np.random.Generator, kind: int) -> str:
    k = int(rng.integers(1, 4))
    parts = [
        _STEMS[int(i)] for i in rng.choice(len(_STEMS), size=k, p=_zipf_p(len(_STEMS)))
    ]
    if kind == 0:  # snake_case
        return "_".join(parts)
    if kind == 1:  # camelCase
        return parts[0] + "".join(p.capitalize() for p in parts[1:])
    return "".join(p.capitalize() for p in parts)  # PascalCase


_ZIPF_CACHE: dict[int, np.ndarray] = {}


def _zipf_p(n: int) -> np.ndarray:
    p = _ZIPF_CACHE.get(n)
    if p is None:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        p = 1.0 / ranks
        p /= p.sum()
        _ZIPF_CACHE[n] = p
    return p


def _doc_content(rng: np.random.Generator, n_lines: int) -> str:
    lines = []
    for _ in range(n_lines):
        kind = int(rng.integers(0, 3))
        words = [_ident(rng, int(rng.integers(0, 3))) for _ in range(int(rng.integers(2, 7)))]
        if kind == 0:
            lines.append(f"def {words[0]}({', '.join(words[1:3])}):")
        elif kind == 1:
            lines.append(f"    {words[0]} = {words[1]}({', '.join(words[2:])})")
        else:
            lines.append(f"    return {' + '.join(words)}")
    return "\n".join(lines)


def generate_corpus(n_docs: int, seed: int = 42) -> pa.Table:
    rng = np.random.default_rng(seed)
    repos, paths, commits, langs, contents = [], [], [], [], []
    for i in range(n_docs):
        lang = _LANGS[i % len(_LANGS)]
        repos.append(f"org{i % 7}/proj{i % 23}")
        paths.append(f"src/dir{i % 13}/file_{i}.{_EXT[lang]}")
        commits.append(hashlib.sha256(f"commit-{i}".encode()).hexdigest()[:40])
        langs.append(lang)
        n_lines = int(rng.integers(3, 60))
        contents.append(_doc_content(rng, n_lines))
    # edge cases: a few exact duplicates, an empty doc, a unicode doc
    if n_docs >= 16:
        contents[5] = contents[3]          # exact dup pair (differing repo/path)
        contents[11] = contents[3]         # triple
        contents[7] = ""                   # empty doc
        contents[9] = "def héllo_wörld():\n    return naïve_café + 键值"  # unicode
    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(commits, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def write_corpus(path: str, n_docs: int, seed: int = 42, rows_per_file: int = 100_000) -> str:
    """Write the corpus as one-or-more Parquet files under ``path``.

    Multiple files (for larger corpora) give the Ray read natural input
    partitions. Idempotent: skips writing when the target already holds
    a corpus with a matching ``_CORPUS_META`` marker.
    """
    meta_path = os.path.join(path, "_CORPUS_META")
    marker = f"n_docs={n_docs} seed={seed} rows_per_file={rows_per_file} v=1"
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            if f.read() == marker:
                return path
    os.makedirs(path, exist_ok=True)
    table = generate_corpus(n_docs, seed)
    nfiles = max(1, (n_docs + rows_per_file - 1) // rows_per_file)
    for f_idx in range(nfiles):
        lo = f_idx * rows_per_file
        hi = min(n_docs, lo + rows_per_file)
        pq.write_table(table.slice(lo, hi - lo), os.path.join(path, f"part-{f_idx:05d}.parquet"))
    with open(meta_path, "w") as f:
        f.write(marker)
    return path


# ---------------------------------------------------------------------------
# parallel generator for BIG bench corpora. A distinct deterministic
# family (per-file seeded rng, so files generate independently across
# processes) — NOT byte-compatible with generate_corpus(n, seed), which
# the frozen test fixtures depend on; bench-scale inputs only.


def _chunk_table(f_idx: int, lo: int, hi: int, seed: int) -> pa.Table:
    rng = np.random.default_rng([seed, f_idx])
    repos, paths, commits, langs, contents = [], [], [], [], []
    for i in range(lo, hi):
        lang = _LANGS[i % len(_LANGS)]
        repos.append(f"org{i % 7}/proj{i % 23}")
        paths.append(f"src/dir{i % 13}/file_{i}.{_EXT[lang]}")
        commits.append(hashlib.sha256(f"commit-{i}".encode()).hexdigest()[:40])
        langs.append(lang)
        contents.append(_doc_content(rng, int(rng.integers(3, 60))))
    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(commits, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def _write_chunk(args) -> str:
    path, f_idx, lo, hi, seed = args
    out = os.path.join(path, f"part-{f_idx:05d}.parquet")
    pq.write_table(_chunk_table(f_idx, lo, hi, seed), out)
    return out


def write_corpus_parallel(
    path: str, n_docs: int, seed: int = 42, rows_per_file: int = 20_000,
    workers: int = 16,
) -> str:
    """Deterministic corpus written by a process pool (one file per
    task; per-file seeds make output independent of worker count).
    Same schema/distributions as generate_corpus; used for bench
    corpora too large for the single-threaded generator."""
    meta_path = os.path.join(path, "_CORPUS_META")
    marker = f"par n_docs={n_docs} seed={seed} rows_per_file={rows_per_file} v=1"
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            if f.read() == marker:
                return path
    os.makedirs(path, exist_ok=True)
    from concurrent.futures import ProcessPoolExecutor

    jobs = []
    nfiles = max(1, (n_docs + rows_per_file - 1) // rows_per_file)
    for f_idx in range(nfiles):
        lo = f_idx * rows_per_file
        hi = min(n_docs, lo + rows_per_file)
        jobs.append((path, f_idx, lo, hi, seed))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        list(ex.map(_write_chunk, jobs))
    with open(meta_path, "w") as f:
        f.write(marker)
    return path
