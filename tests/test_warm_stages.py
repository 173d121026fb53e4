"""Tag/link as warm task stages and the Arrow keyed aggregate (pipelines.kg)."""

import glob
import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data
from ray.data.aggregate import Max, Sum

from newsagency_classification_ray.pipelines import kg
from newsagency_classification_ray.sources.pages import ensure_pages
from newsagency_classification_ray.stages.extract import extract_text_batch, filter_pages
from newsagency_classification_ray.stages.linker import LinkerStage
from newsagency_classification_ray.stages.tagger import TaggerStage
from newsagency_classification_ray.stages.warm import warm_stage
from newsagency_classification_ray.state.manifest import partition_data_files

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "sf0.001"  # ensure_pages only reads the scale factor from the name


def _table(ds) -> pa.Table:
    # a range partition that no key falls into is an empty block without
    # columns (Ray's sort emits it and the map passes it through)
    return pa.concat_tables([b for b in ray.get(ds.to_arrow_refs()) if b.num_columns])


def _rows(t: pa.Table) -> list[tuple]:
    names = t.column_names
    return sorted(tuple(r[c] for c in names) for r in t.to_pylist())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_keyed_aggregate_matches_ray_groupby(ray_session, seed):
    rng = np.random.default_rng(seed)
    n = 600
    t = pa.table({
        "host": pa.array([f"h{i}" for i in rng.integers(0, 7, n)]),
        "year": pa.array(rng.integers(1900, 1906, n).astype(np.int32)),
        "qid": pa.array([f"Q{i}" for i in rng.integers(0, 5, n)]),
        "n": pa.array(rng.integers(1, 9, n).astype(np.int64)),
    })
    cuts = sorted(rng.integers(0, n, 5).tolist())
    bounds = [0, *cuts, cuts[-1], n]  # repeated cut ⇒ an empty block
    blocks = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    assert any(len(b) == 0 for b in blocks) and len(blocks) > 3
    ds = ray.data.from_arrow(blocks)

    keys = ["host", "qid"]
    got = _table(kg.keyed_aggregate(
        ds, keys, {"n": ("n", "sum"), "year": ("year", "max")}))
    want = _table(ds.groupby(keys).aggregate(
        Sum("n", alias_name="n"), Max("year", alias_name="year")))
    assert got.column_names == want.column_names == ["host", "qid", "n", "year"]
    # Arrow types: sums int64, the int32 year stays int32 (Ray's groupby
    # widens it to int64; the values are equal)
    assert got.schema.field("n").type == pa.int64()
    assert got.schema.field("year").type == pa.int32()
    assert _rows(got) == _rows(want)

    # an int32 key column, one string key
    got = _table(kg.keyed_aggregate(ds, ["host", "year"], {"n": ("n", "sum")}))
    want = _table(ds.groupby(["host", "year"]).aggregate(Sum("n", alias_name="n")))
    assert got.schema.field("year").type == pa.int32()
    assert _rows(got) == _rows(want)
    got = _table(kg.keyed_aggregate(ds, "qid", {"n": ("n", "sum")}))
    want = _table(ds.groupby("qid").aggregate(Sum("n", alias_name="n")))
    assert _rows(got) == _rows(want)
    # output is globally sorted by key, like Ray's sort-based groupby
    assert got["qid"].to_pylist() == sorted(got["qid"].to_pylist())


def test_keyed_aggregate_empty_dataset(ray_session):
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.string()), "n": pa.array([], pa.int64())}))
    got = kg.keyed_aggregate(ds, ["k"], {"n": ("n", "sum")})
    want = ds.groupby(["k"]).aggregate(Sum("n", alias_name="n"))
    assert got.count() == want.count() == 0


def _plan_ops(ds) -> list:
    ops, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        ops.append(op)
        todo.extend(op.input_dependencies)
    return ops


def test_flagship_plan_has_no_actor_pool_or_groupby_aggregate():
    """The job's own plans: extraction runs tagger and linker as plain
    tasks, and ``graph_tables`` builds nodes and edges without Ray's
    ``groupby().aggregate()``."""
    from ray.data._internal.compute import ActorPoolStrategy
    from ray.data._internal.logical.operators.all_to_all_operator import Aggregate

    ops = _plan_ops(kg.extract_mentions(kg.read_pages(ensure_pages(SF))))  # lazy
    assert not [op for op in ops
                if isinstance(getattr(op, "_compute", None), ActorPoolStrategy)]
    names = {op.name for op in ops}
    assert "MapBatches(_tag_batch)" in names and "MapBatches(_link_batch)" in names

    urls = [f"http://h{i % 2}.lu/a{i}" for i in range(6)]
    mentions = ray.data.from_arrow(pa.table({
        "mention_id": [f"{u}#0" for u in urls], "url": urls,
        "host": [u.split("/")[2] for u in urls],
        "year": pa.array([1900 + i % 3 for i in range(6)], pa.int32()),
        "surface": ["Havas"] * 6, "surface_norm": ["havas"] * 6,
        "canonical": ["Havas"] * 6, "qid": ["Q2826560"] * 6}))
    g = kg.graph_tables(mentions)
    ops = [op for name in ("nodes", "edges") for op in _plan_ops(g[name])]
    assert ops and not [op for op in ops if isinstance(op, Aggregate)]
    assert g["nodes"].count() == 7 and g["edges"].count() == 6


def test_stages_still_callable_directly():
    p = ensure_pages(SF)
    pages = extract_text_batch(filter_pages(pq.read_table(
        sorted(glob.glob(os.path.join(p, "*.parquet")))[0])))
    tagged = TaggerStage(model="alias")(pages)
    linked = LinkerStage()(tagged)
    assert len(linked) == len(tagged) > 0
    assert {"canonical", "qid", "link_score"} <= set(linked.column_names)
    # the per-process memo hands out one instance per (stage, kwargs)
    assert warm_stage(TaggerStage, model="alias") is warm_stage(TaggerStage, model="alias")
    assert warm_stage(LinkerStage) is not warm_stage(TaggerStage, model="alias")


def test_worker_killed_mid_extraction_is_retried_exactly_once(
        ray_session, tmp_path, monkeypatch):
    """A task worker dies (``os._exit``, not an exception) after tagging a
    batch but before returning it. Ray Data retries the task on another
    worker, and the mention table is exactly the undisturbed one: no row
    lost, none duplicated."""
    p = ensure_pages(SF)
    want = kg.extract_mentions(kg.read_pages(p)).to_pandas()

    marker = tmp_path / "died_once"
    tag = kg._tag_batch

    def dies_once(batch, model):
        out = tag(batch, model)
        if len(out) and not marker.exists():
            marker.write_text("x")
            os._exit(1)  # hard process kill mid-task
        return out

    monkeypatch.setattr(kg, "_tag_batch", dies_once)
    got = kg.extract_mentions(kg.read_pages(p)).to_pandas()
    assert marker.exists()
    assert got["mention_id"].is_unique
    got = got.sort_values("mention_id").reset_index(drop=True)
    want = want.sort_values("mention_id").reset_index(drop=True)
    assert got.equals(want) and len(got) == 371


_ONE_CPU_RUN = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from newsagency_classification_ray.cli import PipelineConfig, run_pipeline
out = run_pipeline(PipelineConfig(input_path=sys.argv[1], output_root=sys.argv[2],
                                  num_partitions=2))
ray.shutdown()
print(json.dumps(out))
"""


def test_run_pipeline_completes_on_one_cpu(tmp_path):
    """Regression: with the tagger and linker as actor pools, their CPU
    reservations starved the read and sort tasks at <= 2 logical CPUs and
    the execution never finished. A fresh 1-CPU session must finish the
    flagship and write a complete graph."""
    p = ensure_pages(SF)
    out_root = str(tmp_path / "kg")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        x for x in (ROOT, os.environ.get("PYTHONPATH")) if x)}
    proc = subprocess.run([sys.executable, "-c", _ONE_CPU_RUN, p, out_root],
                          capture_output=True, text=True, timeout=120, env=env,
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["mentions"] == 371 and summary["triples"] == 330
    rows = {}
    for table in ("nodes", "edges", "mentions"):
        files = [f for k in range(2)
                 for f in partition_data_files(os.path.join(out_root, table, f"part={k}"))]
        rows[table] = len(pd.concat([pd.read_parquet(f) for f in files]))
        assert rows[table] == summary["write"][table]["rows"]
    assert rows["nodes"] == 212 and rows["mentions"] == 371
