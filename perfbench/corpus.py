"""Seeded, vectorized code-corpus and query generator for the benchmark.

Independent of the program: it never imports the engine's own corpus
module, so its output only changes when this file changes. Every
identifier is built from lowercase parts with a known style (snake,
camel or Pascal case), so the terms a code-aware tokenizer emits for it
are known by construction: the lowercased compound plus its lowercased
parts. The oracle scores from that ground truth and never tokenizes
text itself.

The vocabulary is Zipf-distributed: bare hot stems first, then compound
identifiers made of stems and rare tail words. It is the same for every
seed, like one language's identifiers across many repositories; the
seed draws the documents from it, so corpora of one size differ in
content but not in shape. Document lengths are log-normal, a few
documents duplicate another's content and one is empty. Generated
corpora are cached on disk, keyed by seed and size.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VERSION = 2

STEMS = [
    "get", "set", "load", "save", "user", "name", "file", "path", "data",
    "list", "item", "node", "tree", "map", "key", "value", "index", "query",
    "token", "parse", "read", "write", "buffer", "stream", "hash", "sort",
    "block", "score", "term", "doc", "batch", "shard", "cache", "server",
    "client", "retry", "config", "commit", "cursor", "heap", "window",
    "offset", "merge", "filter", "event", "state", "handle", "result",
]
_SYLLABLES = [
    "ka", "lo", "mi", "ren", "tor", "vex", "qua", "zil", "dor", "fen",
    "gri", "hul", "jas", "ply", "sno", "tek", "urb", "wim", "yor", "bex",
    "cav", "nim", "osk", "pru",
]
_SEPARATORS = np.array([" ", ", ", "(", ") ", " = ", "\n    ", ".", ": "])
_LANGS = np.array(["python", "java", "go", "rust", "js", "c"])
_EXTS = np.array(["py", "java", "go", "rs", "js", "c"])

N_COMPOUNDS = 12_000
N_TAIL_WORDS = 3_000
ZIPF_S = 1.0
ZIPF_Q = 2.0  # Zipf-Mandelbrot offset: flattens the very top ranks a little
MEDIAN_IDENTS_PER_DOC = 60
EXTEND_DOCS = 40


@dataclass
class Vocab:
    """Identifier strings and, per identifier, the term ids it emits."""

    terms: list[str]  # term id -> term
    ident_text: list[str]  # identifier id -> source text
    ident_ptr: np.ndarray  # CSR over ident_terms
    ident_terms: np.ndarray
    n_stems: int
    compound_term: np.ndarray  # identifier id -> its compound term id (-1 for bare stems)


@dataclass
class Corpus:
    """Rows in doc_id order (the rank under a sort by repo, path,
    commit, content) plus their ground-truth identifier sequences."""

    seed: int
    rows: pa.Table  # repo, path, commit, lang, content
    doc_ptr: np.ndarray  # CSR over doc_idents
    doc_idents: np.ndarray
    vocab: Vocab
    sha256: list[str]


def _tail_words(rng: np.random.Generator, n: int) -> list[str]:
    seen = set(STEMS)
    out: list[str] = []
    while len(out) < n:
        k = int(rng.integers(2, 4))
        w = "".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), k))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _style(parts: list[str], style: int) -> str:
    if style == 0:
        return "_".join(parts)
    if style == 1:
        return parts[0] + "".join(p.capitalize() for p in parts[1:])
    return "".join(p.capitalize() for p in parts)


def _zipf(n: int, s: float = ZIPF_S, q: float = ZIPF_Q) -> np.ndarray:
    p = 1.0 / (np.arange(n, dtype=np.float64) + 1.0 + q) ** s
    return p / p.sum()


def make_vocab(rng: np.random.Generator) -> Vocab:
    tails = _tail_words(rng, N_TAIL_WORDS)
    term_id: dict[str, int] = {}

    def tid(t: str) -> int:
        i = term_id.get(t)
        if i is None:
            i = term_id[t] = len(term_id)
        return i

    ident_text: list[str] = []
    ident_terms: list[list[int]] = []
    compound: list[int] = []
    for s in STEMS:
        ident_text.append(s)
        ident_terms.append([tid(s)])
        compound.append(-1)
    stem_p = _zipf(len(STEMS))
    seen: set[str] = set(STEMS)
    while len(ident_text) < len(STEMS) + N_COMPOUNDS:
        k = int(rng.integers(2, 4))
        parts = [STEMS[int(rng.choice(len(STEMS), p=stem_p))]]
        for _ in range(k - 1):
            if rng.random() < 0.5:
                parts.append(STEMS[int(rng.choice(len(STEMS), p=stem_p))])
            else:
                parts.append(tails[int(rng.integers(0, len(tails)))])
        comp = "".join(parts)
        if comp in seen:
            continue
        seen.add(comp)
        ident_text.append(_style(parts, int(rng.integers(0, 3))))
        c = tid(comp)
        ident_terms.append([c] + [tid(p) for p in parts])
        compound.append(c)
    ptr = np.zeros(len(ident_terms) + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([len(t) for t in ident_terms])
    return Vocab(
        terms=list(term_id),
        ident_text=ident_text,
        ident_ptr=ptr,
        ident_terms=np.fromiter((t for ts in ident_terms for t in ts), np.int64, ptr[-1]),
        n_stems=len(STEMS),
        compound_term=np.array(compound, dtype=np.int64),
    )


def _render(vocab: Vocab, idents: np.ndarray, seps: np.ndarray) -> str:
    text = vocab.ident_text
    return "".join(f"{text[i]}{s}" for i, s in zip(idents.tolist(), seps.tolist())).rstrip()


def _draw_docs(rng: np.random.Generator, vocab: Vocab, n_docs: int,
               median_len: int) -> tuple[np.ndarray, np.ndarray]:
    lens = np.clip(
        np.round(rng.lognormal(np.log(median_len), 0.8, n_docs)), 1, 20 * median_len
    ).astype(np.int64)
    ptr = np.zeros(n_docs + 1, dtype=np.int64)
    ptr[1:] = np.cumsum(lens)
    n_ident = len(vocab.ident_text)
    # ranks: bare stems first, compounds in random order after them
    order = np.concatenate([
        np.arange(vocab.n_stems), vocab.n_stems + rng.permutation(n_ident - vocab.n_stems)
    ])
    idents = order[rng.choice(n_ident, size=int(ptr[-1]), p=_zipf(n_ident))]
    return ptr, idents


def generate(seed: int, n_docs: int) -> Corpus:
    """Deterministic in (seed, n_docs)."""
    vocab = make_vocab(np.random.default_rng([VERSION]))
    rng = np.random.default_rng([VERSION, seed])
    ptr, idents = _draw_docs(rng, vocab, n_docs, MEDIAN_IDENTS_PER_DOC)
    seps = _SEPARATORS[rng.integers(0, len(_SEPARATORS), size=len(idents))]
    docs = [(idents[ptr[i]:ptr[i + 1]], seps[ptr[i]:ptr[i + 1]]) for i in range(n_docs)]
    if n_docs >= 8:  # edge rows: one empty document, three copies of another
        docs[1] = (idents[:0], seps[:0])
        docs[3] = docs[5] = docs[7] = docs[2]
    contents = [_render(vocab, d, s) for d, s in docs]
    lang = rng.integers(0, len(_LANGS), n_docs)
    repos = [f"org{a}/proj{b}" for a, b in zip(rng.integers(0, 5, n_docs),
                                                rng.integers(0, 17, n_docs))]
    paths = [f"src/m{i % 11}/f{i:06d}.{_EXTS[k]}" for i, k in enumerate(lang)]
    commits = [f"{h:016x}" for h in rng.integers(0, 2**63, n_docs)]
    # doc_id = rank under the engine's sort key (repo, path, commit), content breaks ties
    order = sorted(range(n_docs), key=lambda i: (repos[i], paths[i], commits[i], contents[i]))
    rows = pa.table({
        "repo": pa.array([repos[i] for i in order], pa.string()),
        "path": pa.array([paths[i] for i in order], pa.string()),
        "commit": pa.array([commits[i] for i in order], pa.string()),
        "lang": pa.array([str(_LANGS[lang[i]]) for i in order], pa.string()),
        "content": pa.array([contents[i] for i in order], pa.string()),
    })
    doc_ptr = np.zeros(n_docs + 1, dtype=np.int64)
    doc_ptr[1:] = np.cumsum([len(docs[i][0]) for i in order])
    doc_idents = np.concatenate([docs[i][0] for i in order] + [idents[:0]])
    return Corpus(
        seed=seed, rows=rows, doc_ptr=doc_ptr, doc_idents=doc_idents, vocab=vocab,
        sha256=[hashlib.sha256(c.encode()).hexdigest() for c in rows["content"].to_pylist()],
    )


def extend_delta(corpus: Corpus, number: int) -> tuple[list[dict], np.ndarray, np.ndarray, str]:
    """The ``number``-th /extend payload: EXTEND_DOCS new documents from
    the same vocabulary, the first of which carries a marker token that
    no other document has. Returns (docs, doc_ptr, doc_idents, marker)."""
    rng = np.random.default_rng([VERSION, corpus.seed, 1_000 + number])
    ptr, idents = _draw_docs(rng, corpus.vocab, EXTEND_DOCS, MEDIAN_IDENTS_PER_DOC // 2)
    seps = _SEPARATORS[rng.integers(0, len(_SEPARATORS), size=len(idents))]
    marker = "zqmk" + _letters(corpus.seed) + "x" + _letters(number)
    docs = []
    for i in range(EXTEND_DOCS):
        text = _render(corpus.vocab, idents[ptr[i]:ptr[i + 1]], seps[ptr[i]:ptr[i + 1]])
        if i == 0:
            text = f"{marker} {text}"
        docs.append({"content": text, "repo": "ingest/delta", "lang": "python",
                     "path": f"delta{number}/f{i:03d}.py"})
    return docs, ptr, idents, marker


def _letters(n: int) -> str:
    s = ""
    while True:
        n, r = divmod(n, 26)
        s = chr(97 + r) + s
        if n == 0:
            return s


def load_or_generate(cache_root: str, seed: int, n_docs: int, rows_per_file: int = 1000) -> tuple[Corpus, str]:
    """Corpus plus the directory holding it as Parquet. The directory
    holds only the Parquet parts, because the engine reads every
    corpus-like file in it; the ground truth sits beside it."""
    key = os.path.join(cache_root, f"v{VERSION}-s{seed}-n{n_docs}")
    corpus_dir = os.path.join(key, "corpus")
    truth = os.path.join(key, "truth.npz")
    done = os.path.join(key, "DONE")
    if os.path.exists(done):
        z = np.load(truth)
        with open(os.path.join(key, "vocab.txt")) as f:
            vocab_json = json.load(f)
        vocab = Vocab(
            terms=vocab_json["terms"], ident_text=vocab_json["ident_text"],
            ident_ptr=z["ident_ptr"], ident_terms=z["ident_terms"],
            n_stems=int(vocab_json["n_stems"]), compound_term=z["compound_term"],
        )
        rows = pq.read_table(corpus_dir)
        return Corpus(
            seed=seed, rows=rows, doc_ptr=z["doc_ptr"], doc_idents=z["doc_idents"],
            vocab=vocab, sha256=vocab_json["sha256"],
        ), corpus_dir
    c = generate(seed, n_docs)
    os.makedirs(corpus_dir, exist_ok=True)
    for f_idx, lo in enumerate(range(0, n_docs, rows_per_file)):
        pq.write_table(c.rows.slice(lo, rows_per_file),
                       os.path.join(corpus_dir, f"part-{f_idx:05d}.parquet"))
    np.savez(truth, doc_ptr=c.doc_ptr, doc_idents=c.doc_idents,
             ident_ptr=c.vocab.ident_ptr, ident_terms=c.vocab.ident_terms,
             compound_term=c.vocab.compound_term)
    with open(os.path.join(key, "vocab.txt"), "w") as f:
        json.dump({"terms": c.vocab.terms, "ident_text": c.vocab.ident_text,
                   "n_stems": c.vocab.n_stems, "sha256": c.sha256}, f)
    with open(done, "w") as f:
        f.write("ok")
    return c, corpus_dir
