"""Tests of the benchmark itself: generator, oracle and a smoke run.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import corpus as gen  # noqa: E402
from perfbench.oracle import Oracle, make_queries  # noqa: E402


def _hits(oracle, terms):
    return [{"doc_id": d, "score": s, "content_sha256": oracle.sha256[d]}
            for d, s in oracle.topk(terms)]


def test_generator_is_seeded_with_edge_rows():
    a, b, c = gen.generate(3, 120), gen.generate(3, 120), gen.generate(4, 120)
    assert a.rows.equals(b.rows)
    assert not a.rows.equals(c.rows)
    contents = a.rows["content"].to_pylist()
    assert contents.count("") == 1
    assert max(contents.count(t) for t in contents if t) == 4


def test_ground_truth_is_what_the_engine_tokenizer_emits():
    from information_retrieval_images_ray.functions.tokenizer import tokenize_code

    c = gen.generate(6, 60)
    v = c.vocab
    for i, text in enumerate(c.rows["content"].to_pylist()):
        idents = c.doc_idents[c.doc_ptr[i]:c.doc_ptr[i + 1]]
        want = Counter(v.terms[t] for ident in idents
                       for t in v.ident_terms[v.ident_ptr[ident]:v.ident_ptr[ident + 1]])
        assert Counter(tokenize_code(text)) == want


def test_oracle_flags_perturbed_results():
    o = Oracle(gen.generate(5, 200))
    _, terms = make_queries(o, "tail", 5, 1, (2, 20))[0]
    hits = _hits(o, terms)
    assert len(hits) >= 2
    assert o.check(terms, hits) is None and o.check_hydration(hits) is None
    assert o.check(terms, [dict(hits[0], score=hits[0]["score"] + 1e-3)] + hits[1:])
    assert o.check(terms, [hits[1], hits[0]] + hits[2:])
    assert o.check(terms, hits[:-1])
    assert o.check_hydration([dict(hits[0], content_sha256="0" * 64)])


def test_extend_marker_is_the_only_hit():
    c = gen.generate(5, 200)
    o = Oracle(c)
    docs, ptr, idents, marker = gen.extend_delta(c, 0)
    first = o.add_delta(docs, ptr, idents, marker)
    assert first == 200 and o.n_docs == 200 + gen.EXTEND_DOCS
    assert [d for d, _ in o.topk([marker])] == [first]


def test_smoke_run_prints_every_metric():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {m["name"] for kind in ("end_to_end", "per_layer") for m in bench[kind]}
    assert set(res["metrics"]) == names
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert "oracle flags a perturbed result: True" in out.stdout
