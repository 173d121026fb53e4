"""Driver-contract smoke: entry(), queries(), oracle_sql() shape."""

import importlib.util
import sys
from pathlib import Path

import ray.data


def load_entry_module():
    path = Path(__file__).resolve().parents[1] / "__ray_entry__.py"
    spec = importlib.util.spec_from_file_location("__ray_entry__", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_entry_runs_and_has_stable_schema():
    mod = load_entry_module()
    ds = mod.entry()
    assert isinstance(ds, ray.data.Dataset)
    tbl = ds.to_pandas()
    assert len(tbl) >= 0
    assert {"url", "predicate", "qid", "year", "n_mentions"} <= set(tbl.columns)
    assert (tbl["predicate"] == "cites_agency").all()


KG_CHECKS = {
    "kg_triples", "kg_canonical", "kg_cooccurrence", "kg_nodes_agency",
    "kg_mentions", "kg_mentions_in_span", "kg_article_rollup",
    "kg_agency_langs", "kg_decade_agency_counts", "kg_eval_strict",
    "pages_lang_counts", "pages_dedup_stats",
    "hipe_regimes", "hipe_scorer_parity", "hipe_ser",
}


def test_queries_and_oracles_consistent():
    from newsagency_classification_ray.queries import QUERIES

    mod = load_entry_module()
    qs = mod.queries()
    sql = mod.oracle_sql()
    assert set(qs) == set(QUERIES)
    assert set(sql) == set(qs)  # every query has an oracle, and back
    assert KG_CHECKS <= set(qs)  # the KG job's checks are all registered
    # queries() hands out the registry's own callables: no cache in between
    assert all(qs[name] is QUERIES[name] for name in qs)
    for name, s in sql.items():
        assert isinstance(s, str) and "SELECT" in s.upper(), name
