"""Boolean-clause, prefix, and fuzzy (tolerant) retrieval.

The classic fulltext query surface beyond plain ranked terms: Lucene
BooleanQuery-shaped must/should/must_not clauses, prefix expansion
over the sorted term dictionary, and edit-distance expansion with the
FuzzyQuery prefix_length pruning. The reference has none of these
(its /search scores every caption, server.py:147-166); they are
checked here against brute-force set semantics and against the plain
scorers' invariants.
"""

import duckdb
import numpy as np
import pytest

from information_retrieval_images_ray.functions.tokenizer import tokenize_simple
from information_retrieval_images_ray.pipelines import flagship
from information_retrieval_images_ray.pipelines.query import (
    IndexReader, _levenshtein_leq)

from conftest import search


@pytest.fixture(scope="module")
def doc_index(sf_dir):
    return flagship.build_documents_index(sf_dir)


@pytest.fixture(scope="module")
def reader(doc_index):
    return IndexReader(doc_index)


@pytest.fixture(scope="module")
def tokens_of(sf_dir):
    rows = duckdb.sql(
        f"SELECT doc_id, text FROM '{sf_dir}/documents.parquet'"
    ).fetchall()
    return {d: set(tokenize_simple(t or "")) for d, t in rows}


# -- boolean ---------------------------------------------------------------

def _brute_boolean(tokens_of, must, should, must_not):
    m = set(tokenize_simple(must))
    s = set(tokenize_simple(should))
    n = set(tokenize_simple(must_not))
    out = set()
    for d, toks in tokens_of.items():
        if m and not m <= toks:
            continue
        if not m and not (s & toks):
            continue
        if n & toks:
            continue
        out.add(d)
    return out


@pytest.mark.parametrize("q", flagship.BOOLEAN_QUERIES, ids=lambda q: f"qid{q['qid']}")
def test_boolean_membership_matches_brute_force(reader, tokens_of, q):
    """Full (k=inf) boolean result set == brute-force set semantics."""
    hits = search(reader, "boolean", k=len(tokens_of), must=q["must"],
                  should=q["should"], must_not=q["must_not"])
    expect = _brute_boolean(tokens_of, q["must"], q["should"], q["must_not"])
    assert {d for d, _ in hits} == expect


def test_boolean_must_only_equals_taat(reader, tokens_of):
    """must=X with no should/not ranks exactly like search_taat(X)
    restricted to docs containing every term — same partials, same
    add order, so scores are bitwise equal."""
    q = "hash join"
    boolean = search(reader, "boolean", k=10_000, must=q)
    need = set(tokenize_simple(q))
    taat = [
        (d, s) for d, s in reader.search_taat(q, k=10_000)
        if need <= tokens_of[d]
    ]
    assert boolean == taat


def test_boolean_score_ignores_must_not_and_dedupes_overlap(reader):
    """must_not terms never contribute to scores (pure exclusion), and
    a term in both must and should scores ONCE."""
    plain = dict(search(reader, "boolean", k=10_000, must="window"))
    overlap = dict(search(reader, "boolean", k=10_000, must="window",
                          should="window"))
    assert plain == overlap
    # excluding a df-0 term changes nothing
    with_not = dict(search(reader, "boolean", k=10_000, must="window",
                           must_not="zebra"))
    assert plain == with_not


def test_boolean_absent_must_term_empties(reader):
    assert search(reader, "boolean", k=10, must="scan zebra",
                  should="table") == []
    assert search(reader, "boolean", k=10, must_not="scan") == []  # nothing to score


# -- prefix ----------------------------------------------------------------

def test_prefix_expansion_and_cap(reader, tokens_of):
    vocab = sorted(set().union(*tokens_of.values()))
    for pfx in ["s", "st", "co", "zz", "dup"]:
        expect = [t for t in vocab if t.startswith(pfx)]
        assert reader.expand_prefix(pfx, max_expansions=64) == expect[:64]
        # deterministic cap: lexicographically-first N
        assert reader.expand_prefix(pfx, max_expansions=2) == expect[:2]


def test_prefix_search_equals_or_of_expansions(reader):
    terms = reader.expand_prefix("s", max_expansions=4)
    assert len(terms) == 4  # 's' has 6 vocab matches; the cap binds
    assert search(reader, "prefix", "s", k=20, max_expansions=4) == \
        reader.search_or_terms(terms, k=20)
    assert search(reader, "prefix", "zz", k=5) == []


def test_wildcard_reversed_dict_matches_brute_scan(reader, tokens_of):
    """Leading-* patterns route through the lazily-built reversed-term
    dictionary (query.py _Segment.rev_terms) and must expand to
    EXACTLY the regex-scan answer; the reversed dict is built only
    when a suffix pattern actually arrives."""
    import re

    vocab = sorted(set().union(*tokens_of.values()))

    # forward pattern first: no segment builds the reversed dictionary
    reader.expand_wildcard("s*am", max_expansions=64)
    assert all(getattr(sg, "_rev_terms", None) is None for sg in reader.segments)

    for pat in ["*er", "*t", "*a*le", "*zzzz", "sort", "nosuchterm"]:
        rx = re.compile(".*".join(re.escape(p) for p in pat.split("*")) + r"\Z")
        expect = [t for t in vocab if rx.match(t)]
        assert reader.expand_wildcard(pat, max_expansions=64) == expect[:64]
        assert reader.expand_wildcard(pat, max_expansions=3) == expect[:3]

    # suffix patterns DID build + cache the reversed dictionary
    assert any(getattr(sg, "_rev_terms", None) is not None for sg in reader.segments)
    # doubly-open infix still matches the scan answer
    rx = re.compile(r".*a.*\Z")
    expect = [t for t in vocab if rx.match(t)]
    assert reader.expand_wildcard("*a*", max_expansions=64) == expect[:64]


def test_or_terms_single_equals_taat(reader):
    assert reader.search_or_terms(["batch"], k=25) == reader.search_taat("batch", k=25)


# -- fuzzy -----------------------------------------------------------------

def test_levenshtein_leq_against_duckdb():
    import random

    con = duckdb.connect()
    rng = random.Random(7)
    for _ in range(500):
        a = "".join(rng.choices("abc1", k=rng.randint(0, 7)))
        b = "".join(rng.choices("abc1", k=rng.randint(0, 7)))
        d = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
        for cap in (0, 1, 2):
            assert _levenshtein_leq(a, b, cap) == (d <= cap), (a, b, cap, d)


def test_fuzzy_expansion_matches_exact_filter(reader, tokens_of):
    vocab = sorted(set().union(*tokens_of.values()))
    con = duckdb.connect()

    def brute(w, max_edits, prefix_len):
        return [
            t for t in vocab
            if t[:prefix_len] == w[:prefix_len]
            and con.execute("SELECT levenshtein(?, ?)", [t, w]).fetchone()[0]
            <= max_edits
        ]

    for q in flagship.FUZZY_QUERIES:
        w = q["word"]
        assert reader.expand_fuzzy(w, 1, 1, 64) == brute(w, 1, 1), w
    # multi-match: 'ag' is one edit from both 'a' and 'agg'
    assert reader.expand_fuzzy("ag", 1, 1, 64) == ["a", "agg"]
    # prefix_len=0 widens to the whole dictionary
    assert set(reader.expand_fuzzy("ig", 1, 0, 64)) >= {"big"}
    # max_edits=2 widens the band
    assert set(reader.expand_fuzzy("tabel", 2, 1, 64)) >= {"table"}


def test_fuzzy_search_exact_vocab_word_ranks_like_or(reader):
    exp = reader.expand_fuzzy("sort", 1, 1, 8)
    assert "sort" in exp
    assert search(reader, "fuzzy", "sort", k=15) == reader.search_or_terms(exp, k=15)
    assert search(reader, "fuzzy", "zebra", k=5) == []  # nothing within 1 edit


# -- battery output shape ---------------------------------------------------

def test_clause_batteries_shape(sf_dir):
    """Every (qid, rank, doc_id, score_e6) battery: the seven clause /
    expansion batteries and the three positional ones."""
    for fn in (flagship.run_boolean_queries, flagship.run_prefix_queries,
               flagship.run_fuzzy_queries, flagship.run_wildcard_queries,
               flagship.run_regex_queries, flagship.run_boosted_queries,
               flagship.run_synonym_queries, flagship.run_phrase_queries,
               flagship.run_proximity_queries, flagship.run_spannear_queries):
        df = fn(sf_dir, k=10)
        assert list(df.columns) == ["qid", "rank", "doc_id", "score_e6"]
        assert (df.groupby("qid")["rank"].min() == 1).all()
        assert df["score_e6"].gt(0).all()
