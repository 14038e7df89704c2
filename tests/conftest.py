import os

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


def search(reader, mode: str, query: str = "", k: int = 10, doc_filter=None,
           offset: int = 0, **params) -> list[tuple[int, float]]:
    """(doc_id, score) of ranks offset+1..offset+k of one ``mode`` plan:
    ``reader.topk([reader.compile(mode, query, params)], k)``."""
    hits = reader.topk([reader.compile(mode, query, params)], k, doc_filter,
                       offset)
    return [(h["doc_id"], h["score"]) for h in hits]


def collapse(reader, query: str, field: str, k: int = 10) -> list[dict]:
    """Collapsed top-k of ``query`` as rows {"rank", "value", "doc_id",
    "score", "n"}: each ``docmeta[field]`` group's leader hit and the
    group's full match count."""
    hits = reader.topk(
        [reader.compile("collapse", query, {"collapse_field": field})], k)
    return [{"rank": h["rank"], "value": h["group"], "doc_id": h["doc_id"],
             "score": h["score"], "n": h["group_n"]} for h in hits]
