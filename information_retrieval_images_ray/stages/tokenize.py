"""Tokenize + content-hash stage (the engine's featurizer).

This is the Ray-Data analogue of the reference's stateful featurization
stages (model clients constructed once, then a cheap per-item call —
/root/reference/gemini_api.py:9-19, vector_db.py:12-31): a callable
CLASS whose ``__init__`` compiles the tokenizer once per actor and whose
``__call__`` transforms one zero-copy Arrow batch.

Input batch:  (doc_id: uint64, content: string, + any metadata columns)
Output batch: doc_id, content_sha256 (binary, the per-row end-to-end
invariant — reference identity hash pattern, db.py:120-122), doc_len,
terms (list<string>, unique per doc), tfs (list<uint32>), + every input
column but ``content``: ``repo``, ``path``, ``commit`` and ``lang``
first, then the others in input order.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pyarrow as pa

from ..functions.tokenizer import get_tokenizer

PASSTHROUGH = ("repo", "path", "commit", "lang")
# columns the stage derives; a source column of one of these names
# would be overwritten, so it is refused
DERIVED = ("content_sha256", "doc_len", "terms", "tfs")


class TokenizeStage:
    def __init__(self, tokenizer: str = "code"):
        self._tok = get_tokenizer(tokenizer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        clash = [n for n in DERIVED if n in batch.column_names]
        if clash:
            raise ValueError(f"source column {clash[0]!r} clashes with a column "
                             "the tokenize stage derives")
        texts = batch["content"].to_pylist()
        tok = self._tok
        shas: list[bytes] = []
        doc_lens: list[int] = []
        terms_col: list[list[str]] = []
        tfs_col: list[list[int]] = []
        for text in texts:
            text = text or ""
            shas.append(hashlib.sha256(text.encode("utf-8")).digest())
            toks = tok(text)
            doc_lens.append(len(toks))
            c = Counter(toks)
            terms_col.append(list(c.keys()))
            tfs_col.append(list(c.values()))
        cols: dict[str, pa.Array | pa.ChunkedArray] = {
            "doc_id": batch["doc_id"].cast(pa.uint64()),
            "content_sha256": pa.array(shas, pa.binary(32)),
            "doc_len": pa.array(doc_lens, pa.uint32()),
            "terms": pa.array(terms_col, pa.large_list(pa.string())),
            "tfs": pa.array(tfs_col, pa.large_list(pa.uint32())),
        }
        names = batch.column_names
        for name in [n for n in PASSTHROUGH if n in names] + [
                n for n in names if n not in (*PASSTHROUGH, "doc_id", "content")]:
            cols[name] = batch[name]
        return pa.table(cols)

