"""Replicates the driver's correctness gate locally: every queries()
entry with an oracle_sql() must match DuckDB on the shared testdata
(columns, row count, values) at sf0.001."""

import os
import sys

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["documents", "embeddings"]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_df(x):
    import pyarrow as pa
    import ray.data

    if isinstance(x, ray.data.Dataset):
        return x.to_pandas()
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x


@pytest.fixture(scope="module")
def oracle_con(sf_dir):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    return con


def _entry_module():
    import __ray_entry__

    return __ray_entry__


def test_all_oracle_queries_match(sf_dir, oracle_con):
    E = _entry_module()
    qs, os_ = E.queries(), E.oracle_sql()
    assert set(os_) <= set(qs)
    mismatches = []
    for name, sql in os_.items():
        mine = _canon(_to_df(qs[name](sf_dir)))
        orc = _canon(oracle_con.sql(sql).df())
        if list(mine.columns) != list(orc.columns):
            mismatches.append((name, "columns", list(mine.columns), list(orc.columns)))
        elif len(mine) != len(orc):
            mismatches.append((name, "rows", len(mine), len(orc)))
        elif not mine.equals(orc):
            neq = ~(mine == orc).all(axis=1)
            mismatches.append((name, "values", mine[neq].head(2), orc[neq].head(2)))
    assert not mismatches, mismatches


def test_rows_only_queries_run(sf_dir):
    E = _entry_module()
    qs, os_ = E.queries(), E.oracle_sql()
    for name in set(qs) - set(os_):
        out = _to_df(qs[name](sf_dir))
        assert out is not None and len(out) >= 0, name


def test_entry_smoke():
    E = _entry_module()
    out = _to_df(E.entry())
    assert len(out) > 0
    assert {"qid", "rank", "doc_id", "score_e6", "content_sha256"} <= set(out.columns)
