"""Driver-style oracle conformance at sf0.001 (§5 plan (d)).

Mirrors the driver's compare — row count, sorted column names, value
equality — over every registered query, so every entry is checked on
every commit.

One special case: ``kg_eval_strict``'s frozen VALUES oracle pins the sf0.01
conformance numbers (the driver's scale); at sf0.001 the row legitimately
differs, so here it is checked against the north-star CONTRACT instead
(precision == 1.0, recall >= 0.95). The three ``hipe_*`` frozen oracles read
the reference's own TSVs and are sf-independent, so they compare exactly.
"""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import newsagency_classification_ray.queries as Q

SF = "/root/testdata/sf0.001"

# frozen sf0.01 VALUES row — verified against the contract at this sf instead
_SF_PINNED = {"kg_eval_strict"}

ALL_QUERIES = sorted(Q.QUERIES)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for name in ["region", "nation", "customer", "supplier", "part", "orders",
                 "lineitem", "events", "documents", "embeddings"]:
        c.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{SF}/{name}.parquet')")
    return c


@pytest.fixture(scope="module")
def oracle_map():
    old = Q._SF001
    Q._SF001 = SF
    yield Q.oracles()
    Q._SF001 = old


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()


def _run_query(name):
    """One retry on Ray SYSTEM errors only (worker/actor churn killing a
    task mid-suite — observed once in ~200 back-to-back queries). Logic
    errors (RayTaskError wrapping a Python exception, assertion failures)
    are never retried."""
    from ray.exceptions import RaySystemError, RayTaskError

    try:
        return Q.QUERIES[name](SF)
    except (RaySystemError, RayTaskError) as e:
        cause = getattr(e, "cause", None)
        if isinstance(e, RayTaskError) and not isinstance(cause,
                                                          RaySystemError):
            raise
        return Q.QUERIES[name](SF)


@pytest.mark.parametrize("name", ALL_QUERIES)
def test_query_matches_oracle(name, con, oracle_map, ray_session):
    got = canon(_to_df(_run_query(name)))
    if name in _SF_PINNED:
        row = got.iloc[0]
        assert row["precision"] == 1.0
        assert row["recall"] >= 0.95
        return
    assert name in oracle_map, f"{name} has no oracle entry"
    want = canon(con.execute(oracle_map[name]).fetchdf())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    want = want.astype(got.dtypes.to_dict())
    pd.testing.assert_frame_equal(got, want)


def test_kg_eval_strict_unpinned_scale_warns(monkeypatch):
    """At a scale factor with no pinned row the oracle row comes from the
    engine itself; that must be visible, not pass as an independent pin."""
    row = {"tp": 5, "fp": 0, "fn": 1, "precision": 1.0, "recall": 0.8333,
           "f1": 0.9091}
    monkeypatch.setattr(Q, "_SF001", "testdata/sf0.123")
    monkeypatch.setattr(Q, "q_kg_eval_strict",
                        lambda sf_dir: pa.Table.from_pylist([row]))
    with pytest.warns(UserWarning, match=r"sf0\.123.*derived from the engine"):
        sql = Q.O_KG_EVAL_STRICT()
    assert "(5, 0, 1, 1.0, 0.8333, 0.9091)" in sql
