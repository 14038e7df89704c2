"""Golden tests for the tokenizers — these DEFINE rank identity."""

from information_retrieval_images_ray.functions.tokenizer import (
    get_tokenizer,
    term_frequencies,
    tokenize_code,
    tokenize_simple,
)

GOLDEN_CODE = [
    ("", []),
    ("foo", ["foo"]),
    ("FOO", ["foo"]),
    ("getUserName", ["getusername", "get", "user", "name"]),
    ("get_user_name", ["getusername", "get", "user", "name"]),
    ("HTTPServer2_config", ["httpserver2config", "HTTP".lower(), "server2", "config"]),
    ("parseJSON", ["parsejson", "parse", "json"]),
    ("x = foo(y)", ["x", "foo", "y"]),
    ("a_b", ["ab", "a", "b"]),
    ("__init__", ["init"]),
    ("sha256", ["sha256"]),
    ("123", ["123"]),
    ("2Fast2Furious", ["2fast2furious", "2", "fast2", "furious"]),
    # identifiers are ASCII runs; non-ASCII letters act as separators
    ("def héllo_wörld(): naïve", ["def", "h", "llow", "llo", "w", "rld", "na", "ve"]),
    ("___", []),
    ("CONST_VALUE", ["constvalue", "const", "value"]),
]

GOLDEN_SIMPLE = [
    ("", []),
    ("The quick Brown-fox_2", ["the", "quick", "brown", "fox", "2"]),
    ("getUserName", ["getusername"]),
]


def test_code_tokenizer_golden():
    for text, expected in GOLDEN_CODE:
        assert tokenize_code(text) == expected, text


def test_simple_tokenizer_golden():
    for text, expected in GOLDEN_SIMPLE:
        assert tokenize_simple(text) == expected, text


def test_simple_matches_duckdb_regex():
    import duckdb

    texts = [t for t, _ in GOLDEN_CODE] + [t for t, _ in GOLDEN_SIMPLE]
    con = duckdb.connect()
    for t in texts:
        (sql_toks,) = con.execute(
            "select regexp_extract_all(lower(?), '[a-z0-9]+')", [t]
        ).fetchone()
        assert tokenize_simple(t) == sql_toks, t


def test_term_frequencies():
    terms, tfs = term_frequencies(["a", "b", "a", "c", "a"])
    assert dict(zip(terms, tfs)) == {"a": 3, "b": 1, "c": 1}
    assert terms == ["a", "b", "c"]  # first-occurrence order


def test_get_tokenizer():
    assert get_tokenizer("code") is tokenize_code
    assert get_tokenizer("simple") is tokenize_simple


def test_tokenize_stage_passes_every_column_but_content(tmp_path):
    """``TokenizeStage`` keeps every source column but ``content``:
    ``repo``, ``path``, ``commit`` and ``lang`` first, the others in
    source order. A source column named like a derived one is a
    ValueError that names it; through ``build_index`` it reaches the
    caller as Ray Data's ``UserCodeException`` and writes no docterms."""
    import pyarrow as pa
    import pytest
    import ray.data
    from ray.data.exceptions import UserCodeException

    from information_retrieval_images_ray.pipelines.build import build_index
    from information_retrieval_images_ray.stages.tokenize import DERIVED, TokenizeStage

    stage = TokenizeStage("simple")
    src = pa.table({"stars": [3, None], "lang": ["en", "fr"], "content": ["a b a", None],
                    "doc_id": [4, 5], "repo": ["r", "s"]})
    out = stage(src)
    assert out.column_names == ["doc_id", "content_sha256", "doc_len", "terms", "tfs",
                                "repo", "lang", "stars"]
    assert out["stars"].to_pylist() == [3, None] and out["doc_len"].to_pylist() == [3, 0]
    for name in DERIVED:
        with pytest.raises(ValueError, match=name):
            stage(src.append_column(name, pa.array([1, 2])))
    rows = [{"doc_id": i, "content": "alpha", "doc_len": 1} for i in range(3)]
    with pytest.raises(UserCodeException, match="doc_len"):
        build_index(ray.data.from_items(rows), str(tmp_path / "idx"), tokenizer="simple")
    assert not list((tmp_path / "idx").glob("docterms/*.parquet"))
