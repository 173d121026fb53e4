"""Partitioned graph materialize: manifests, resume-skip, idempotence."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from newsagency_classification_ray.pipelines.graph import write_partitioned
from newsagency_classification_ray.state.manifest import (
    MANIFEST_NAME,
    incomplete_partitions,
    read_manifest,
)


def make_ds(n=200):
    return ray.data.from_arrow(pa.table({
        "node_id": pa.array([f"node-{i:04d}" for i in range(n)], type=pa.string()),
        "value": pa.array(list(range(n)), type=pa.int64()),
    }))


def read_all(out_dir):
    return pq.read_table(out_dir).sort_by("node_id")


def test_write_partitioned_manifests(tmp_path):
    out = str(tmp_path / "nodes")
    summary = write_partitioned(make_ds(), out, "node_id", num_partitions=4,
                                sort_by=["node_id"])
    assert len(summary["written"]) == 4 and not summary["skipped"]
    total = 0
    for k in range(4):
        m = read_manifest(os.path.join(out, f"part={k}"))
        assert m is not None and m["row_count"] > 0
        total += m["row_count"]
    assert total == 200


def test_resume_skips_complete_partitions(tmp_path):
    out = str(tmp_path / "nodes")
    write_partitioned(make_ds(), out, "node_id", num_partitions=4)
    before = read_all(out)

    # simulate a crash on part=2: drop its manifest (data possibly stale)
    os.remove(os.path.join(out, "part=2", MANIFEST_NAME))
    assert incomplete_partitions(out, [f"part={k}" for k in range(4)]) == ["part=2"]

    summary = write_partitioned(make_ds(), out, "node_id", num_partitions=4)
    assert summary["written"] == ["part=2"]
    assert sorted(summary["skipped"]) == ["part=0", "part=1", "part=3"]
    after = read_all(out)
    assert before.equals(after)  # idempotent rerun


def test_rerun_noop_when_complete(tmp_path):
    out = str(tmp_path / "nodes")
    write_partitioned(make_ds(), out, "node_id", num_partitions=4)
    summary = write_partitioned(make_ds(), out, "node_id", num_partitions=4)
    assert summary["written"] == [] and len(summary["skipped"]) == 4


def test_stale_partials_scrubbed(tmp_path):
    out = str(tmp_path / "nodes")
    write_partitioned(make_ds(), out, "node_id", num_partitions=4)
    pdir = os.path.join(out, "part=1")
    os.remove(os.path.join(pdir, MANIFEST_NAME))
    # plant a stale extra file from the "crashed" run
    shutil.copy(
        next(os.path.join(pdir, f) for f in os.listdir(pdir) if f.endswith(".parquet")),
        os.path.join(pdir, "stale_partial.parquet"),
    )
    write_partitioned(make_ds(), out, "node_id", num_partitions=4)
    assert not os.path.exists(os.path.join(pdir, "stale_partial.parquet"))
    m = read_manifest(pdir)
    total = sum(read_manifest(os.path.join(out, f"part={k}"))["row_count"]
                for k in range(4))
    assert total == 200 and m is not None


def test_content_hash_stable_across_runs(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    write_partitioned(make_ds(), out_a, "node_id", num_partitions=2)
    write_partitioned(make_ds(), out_b, "node_id", num_partitions=2)
    for k in range(2):
        ma = read_manifest(os.path.join(out_a, f"part={k}"))
        mb = read_manifest(os.path.join(out_b, f"part={k}"))
        assert ma["content_hash"] == mb["content_hash"]


def test_written_partitions_are_sorted_and_complete(tmp_path):
    """North-rule 'sorted graph materialize': every part file holds rows
    sorted by the sort key, and reading all parts back reproduces the
    dataset exactly."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from newsagency_classification_ray.pipelines.graph import write_partitioned

    tbl = pa.table({
        "node_id": pa.array([f"n{i:03d}" for i in range(200)][::-1]),  # reversed
        "weight": pa.array(list(range(200)), type=pa.int64()),
    })
    # multiple input blocks → multiple files per partition dir; sortedness
    # must survive the file split (sorted blocks write in name order)
    ds = ray.data.from_arrow(tbl).repartition(8)
    out = os.path.join(tmp_path, "nodes")
    s = write_partitioned(ds, out, "node_id", num_partitions=4, sort_by=["node_id"])
    assert s["row_count"] == 200

    seen = []
    for k in range(4):
        part = pq.read_table(os.path.join(out, f"part={k}"))
        ids = part["node_id"].to_pylist()
        assert ids == sorted(ids)  # sorted within the partition
        seen.extend(ids)
    assert sorted(seen) == sorted(tbl["node_id"].to_pylist())  # complete, no dups


def test_write_keeps_block_order_when_tasks_finish_out_of_order(tmp_path):
    """The graph writes add no sort: they rely on the writer keeping its
    input's block order, so that each partition read in file-name order
    holds its rows in that order. Here the task of the first block
    finishes last, and its map (other resources) does not fuse with the
    write, so a write fed in finishing order would get that block last.
    The same holds when ``materialize_graph`` writes its three tables at
    once and the delayed one finishes after the others: the flag their
    shared context carries is set for all three writes and restored after
    the last, not by each write for itself."""
    import time

    from newsagency_classification_ray.pipelines.graph import materialize_graph
    from newsagency_classification_ray.state.manifest import partition_data_files

    def slow_first(t: pa.Table) -> pa.Table:
        if t[0][0].as_py() == "n000":
            time.sleep(2)
        return t

    def assert_sorted(out: str, key: str) -> None:
        for k in range(2):
            files = partition_data_files(os.path.join(out, f"part={k}"))
            ids = pa.concat_tables(pq.read_table(f) for f in files)[key].to_pylist()
            assert ids == sorted(ids), (out, k)

    blocks = [pa.table({"node_id": [f"n{i:03d}" for i in range(b * 50, b * 50 + 50)]})
              for b in range(4)]
    ds = ray.data.from_arrow(blocks).map_batches(
        slow_first, batch_format="pyarrow", batch_size=None, num_cpus=0.5)
    out = str(tmp_path / "nodes")
    assert write_partitioned(ds, out, "node_id", num_partitions=2)["row_count"] == 200
    assert_sorted(out, "node_id")

    base = ray.data.from_arrow(blocks)
    opts = base.context.execution_options
    assert opts.preserve_order is False

    def table(key: str, delayed: bool = False) -> ray.data.Dataset:
        def fn(t: pa.Table) -> pa.Table:
            t = t.rename_columns([key])
            if key == "src":
                t = t.append_column("predicate", pa.array(["cites_agency"] * len(t)))
            return slow_first(t) if delayed else t
        return base.map_batches(fn, batch_format="pyarrow", batch_size=None,
                                num_cpus=0.5)

    s = materialize_graph(table("node_id"), table("src"), table("url", delayed=True),
                          str(tmp_path / "graph"), num_partitions=2)
    assert {name: v["row_count"] for name, v in s.items()} == {
        "nodes": 200, "edges": 200, "mentions": 200}
    assert s["mentions"]["wall_s"] > max(s["nodes"]["wall_s"], s["edges"]["wall_s"])
    assert opts.preserve_order is False
    for name, key in (("nodes", "node_id"), ("edges", "src"), ("mentions", "url")):
        assert_sorted(str(tmp_path / "graph" / name), key)


def test_content_hash_independent_of_row_group_splits(tmp_path):
    """A null in an int64 (or bool) column must not change how the other
    rows hash: the hash of a whole table equals the combined hashes of any
    split of its rows, also when written as several row groups."""
    import pandas as pd

    from newsagency_classification_ray.state.manifest import (
        batch_content_hash, combine_hashes, hash_files)

    t = pa.table({
        "x": pa.array([1, None, 3], type=pa.int64()),
        "y": pa.array([7, 8, None], type=pa.int32()),
        "ok": pa.array([True, None, False]),
        "s": pa.array(["a", None, "c"]),
    })
    whole = batch_content_hash(t)
    for cut in range(len(t) + 1):
        parts = [batch_content_hash(t.slice(0, cut)), batch_content_hash(t.slice(cut))]
        assert combine_hashes(parts) == whole, cut
    pq.write_table(t, str(tmp_path / "a.parquet"), row_group_size=1)
    assert hash_files([str(tmp_path / "a.parquet")]) == (3, whole)
    # null-free columns hash exactly as before the nullable conversion
    u = pa.table({"x": pa.array([1, 2], type=pa.int64()), "ok": [True, False]})
    assert batch_content_hash(u) == int(
        pd.util.hash_pandas_object(u.to_pandas(), index=False).sum()) & ((1 << 64) - 1)


def test_rerun_with_other_partition_count_raises(tmp_path):
    """Rows go to ``hash % num_partitions``: a rerun with another count
    would write ``part=4..7`` beside a complete 4-partition table and
    duplicate their rows. It must raise before touching the table, and a
    rerun with the recorded count stays a no-op."""
    out = str(tmp_path / "nodes")
    write_partitioned(make_ds(1000), out, "node_id", num_partitions=4)
    with pytest.raises(ValueError, match="num_partitions=4"):
        write_partitioned(make_ds(1000), out, "node_id", num_partitions=8)
    assert sorted(os.listdir(out)) == [f"part={k}" for k in range(4)]
    assert read_all(out).num_rows == 1000
    assert {read_manifest(os.path.join(out, f"part={k}"))["num_partitions"]
            for k in range(4)} == {4}
    # a lost partition does not hide the count from the others
    shutil.rmtree(os.path.join(out, "part=3"))
    with pytest.raises(ValueError):
        write_partitioned(make_ds(1000), out, "node_id", num_partitions=2)
    summary = write_partitioned(make_ds(1000), out, "node_id", num_partitions=4)
    assert summary["written"] == ["part=3"] and read_all(out).num_rows == 1000
    summary = write_partitioned(make_ds(1000), out, "node_id", num_partitions=4)
    assert summary["written"] == [] and len(summary["skipped"]) == 4
    # manifests that predate the num_partitions field: a partition the
    # smaller count cannot produce still refuses the rerun
    for k in range(4):
        pdir = os.path.join(out, f"part={k}")
        m = read_manifest(pdir)
        m.pop("num_partitions", None)
        with open(os.path.join(pdir, MANIFEST_NAME), "w") as f:
            json.dump(m, f)
    with pytest.raises(ValueError):
        write_partitioned(make_ds(1000), out, "node_id", num_partitions=2)
    # ... and so does a larger count, whose partitions include all of the
    # old ones: such a manifest names no count, so any rerun must raise
    with pytest.raises(ValueError, match="fresh directory"):
        write_partitioned(make_ds(1000), out, "node_id", num_partitions=8)
    assert sorted(os.listdir(out)) == [f"part={k}" for k in range(4)]
    assert read_all(out).num_rows == 1000

