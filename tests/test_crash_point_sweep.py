"""Crash-point sweep: the driver of ``kg.flagship_resumable`` dies at each
manifest publish in turn, and the resumed run must still write the clean
run's graph with manifests that match their files."""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pyarrow.parquet as pq
import ray

from newsagency_classification_ray.pipelines import kg
from newsagency_classification_ray.sources.pages import gen_pages_table
from newsagency_classification_ray.state.manifest import (
    MANIFEST_NAME,
    hash_files,
    partition_data_files,
    read_manifest,
)

NUM_PARTITIONS = 2

# The child is a second driver on the test session's cluster. It replaces
# the ``write_manifest`` that ``pipelines/graph.py`` calls by an
# ``os._exit(1)`` on its k-th call: the driver dies right before the k-th
# publish, with every earlier one done.
_CRASH_AT_KTH_PUBLISH = """
import os, sys
root, address, pages, workdir = sys.argv[1:5]
k = int(sys.argv[5])
sys.path.insert(0, root)
import ray
ray.init(address=address, logging_level="ERROR",
         runtime_env={"env_vars": {"PYTHONPATH": root}})
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from newsagency_classification_ray.pipelines import graph, kg

calls = 0
publish = graph.write_manifest

def publish_or_die(*args, **kwargs):
    global calls
    calls += 1
    if calls == k:
        os._exit(1)
    return publish(*args, **kwargs)

graph.write_manifest = publish_or_die
kg.flagship_resumable(pages, workdir, num_partitions=%d)
""" % NUM_PARTITIONS


def _partitions(workdir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(workdir, "mentions", "shard=*"))
                  + glob.glob(os.path.join(workdir, "graph", "*", "part=*")))


def _graph_rows(workdir: str) -> dict[str, list[tuple]]:
    """Every row of every Parquet file on disk under each graph table, with
    its partition: a stray or missing file changes the result."""
    out = {}
    for table in ("nodes", "edges", "mentions"):
        rows = []
        for fp in glob.glob(os.path.join(workdir, "graph", table, "*", "*.parquet")):
            t = pq.ParquetFile(fp).read()
            part = os.path.basename(os.path.dirname(fp))
            cols = [t[c].to_pylist() for c in sorted(t.column_names)]
            rows.extend((part, *map(repr, r)) for r in zip(*cols))
        out[table] = sorted(rows)
    return out


def _check_manifests(workdir: str) -> None:
    for pdir in _partitions(workdir):
        m = read_manifest(pdir)
        assert m is not None, pdir
        assert (m["row_count"], m["content_hash"]) == hash_files(
            partition_data_files(pdir)), pdir


def test_crash_at_every_manifest_publish_resumes_to_the_clean_graph(tmp_path):
    pages = tmp_path / "pages"
    pages.mkdir()
    corpus = gen_pages_table(400)
    for i in range(2):
        pq.write_table(corpus.slice(i * 200, 200), str(pages / f"s{i}.parquet"))

    clean = str(tmp_path / "clean")
    kg.flagship_resumable(str(pages), clean, num_partitions=NUM_PARTITIONS)
    want = _graph_rows(clean)
    assert all(want.values())
    n_publish = len(_partitions(clean))
    assert n_publish == 2 + 3 * NUM_PARTITIONS
    _check_manifests(clean)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    address = ray.get_runtime_context().gcs_address
    for k in range(1, n_publish + 1):
        wd = str(tmp_path / f"crash{k}")
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_AT_KTH_PUBLISH, root, address, str(pages),
             wd, str(k)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, (k, proc.stderr[-2000:])
        published = glob.glob(os.path.join(wd, "**", MANIFEST_NAME), recursive=True)
        assert len(published) == k - 1, k
        kg.flagship_resumable(str(pages), wd, num_partitions=NUM_PARTITIONS)
        assert _graph_rows(wd) == want, k
        _check_manifests(wd)
