"""Sorted, partitioned graph materialization with per-partition lineage.

Implements the north_rule's "sorted graph materialize into partitioned Parquet
node/edge tables with per-partition lineage manifests and checkpointed
resume" (reference analogue: GEXF export ``network_analysis.ipynb`` cells
59-60, replaced by Parquet tables per SURVEY.md §2.1 S10).

Layout::

    out_root/
      nodes/part=<k>/*.parquet + _manifest.json     # k = hash(node_id) % P
      edges/part=<k>/*.parquet + _manifest.json     # k = hash(src) % P
      mentions/part=<k>/*.parquet + _manifest.json  # k = hash(url) % P

Each partition is written only when absent (manifest check) → a rerun after a
crash recomputes only missing partitions; manifests carry row counts +
order-insensitive content hashes so idempotence is verifiable.
"""

from __future__ import annotations

import functools
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..state.manifest import (
    batch_content_hash,
    combine_hashes,
    incomplete_partitions,
    write_manifest,
)

# write_parquet lazily imports fsspec.implementations.http, which fails here
# (no aiohttp) — harmless single-threaded (caught upstream), but concurrent
# first-imports from writer threads race into a partial-module state that
# surfaces as a spurious ImportError. Warm the import ONCE at module import
# time; only if it genuinely cannot import do we register an inert stub, and
# only then (scoped here, not as a mid-call side effect, per review advice).
import sys as _sys
import types as _types

try:  # pragma: no cover - environment-dependent
    import fsspec.implementations.http  # noqa: F401
except ImportError:
    if "fsspec.implementations.http" not in _sys.modules:
        _stub = _types.ModuleType("fsspec.implementations.http")

        class _NoHTTPFileSystem:  # nothing is an instance → correct False
            pass

        _stub.HTTPFileSystem = _NoHTTPFileSystem
        _sys.modules["fsspec.implementations.http"] = _stub


def _hash_partition_files(pdir: str) -> tuple[int, int]:
    """Row count + order-insensitive content hash of one just-written
    partition directory — streamed row-group-wise (a partition need never
    fit in memory). Module-level so both checkpoint layers (output-side
    :func:`write_partitioned`, input-side
    ``kg.extract_mentions_checkpointed``) dispatch it as the SAME Ray
    task, one per partition: a serial driver loop here is the resume
    layer's bottleneck at 10⁵ crawl shards."""
    import glob as _glob

    import pyarrow.parquet as pq

    nrows = 0
    hashes = []
    for fp in sorted(_glob.glob(os.path.join(pdir, "*.parquet"))):
        f = pq.ParquetFile(fp)
        for rg in range(f.num_row_groups):
            tbl = f.read_row_group(rg)
            nrows += len(tbl)
            hashes.append(batch_content_hash(tbl))
    return nrows, combine_hashes(hashes)


@functools.lru_cache(maxsize=None)
def hash_partition_task():
    """The Ray-remote wrapper, created lazily so importing this module
    never requires an initialized Ray session, and once per process so it
    is exported once, not on every write (Ray re-exports it by itself
    when a new session starts)."""
    import ray

    return ray.remote(num_cpus=1)(_hash_partition_files)


def _crc_bucket_col(col: pa.ChunkedArray | pa.Array, buckets: int) -> pa.Array:
    """Deterministic partition id per key — vectorized (a per-row Python
    crc32 loop here would serialize the write path at scale). Uses pandas'
    stable siphash (``hash_pandas_object``, fixed default key — identical
    across processes and reruns, which is what resume requires)."""
    import pandas as pd

    s = pd.Series(col.to_pandas(), copy=False).astype(str)
    h = pd.util.hash_pandas_object(s, index=False).to_numpy()
    return pa.array((h % buckets).astype("int32"))


def write_partitioned(
    ds: Dataset,
    out_dir: str,
    key_col: str,
    *,
    num_partitions: int = 8,
    sort_by: list[str] | None = None,
    input_fragments: list[str] | None = None,
) -> dict:
    """Sort + hash-partition + write with manifests; skip complete partitions.

    Returns summary {written: [...], skipped: [...], row_count}.
    The partition column is a deterministic crc32 bucket of ``key_col`` so a
    resumed run maps every row to the same partition. Sorting happens *within*
    the written files via the global ``ds.sort`` before the partitioned write.
    """
    t0 = time.time()
    keys = [f"part={k}" for k in range(num_partitions)]
    todo = set(incomplete_partitions(out_dir, keys))
    skipped = sorted(set(keys) - todo)
    if not todo:
        return {"written": [], "skipped": skipped, "row_count": 0}
    # scrub stale partials from a crashed run (no manifest ⇒ not published)
    import shutil

    for k in todo:
        pdir = os.path.join(out_dir, k)
        if os.path.isdir(pdir):
            shutil.rmtree(pdir)

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column("part", _crc_bucket_col(t[key_col], num_partitions))

    parted = ds.map_batches(add_part, batch_format="pyarrow")
    todo_ids = [int(k.split("=")[1]) for k in todo]
    parted = parted.map_batches(
        lambda t, ids=tuple(todo_ids): t.filter(
            pc.is_in(t["part"], value_set=pa.array(ids, type=pa.int32()))
        ),
        batch_format="pyarrow",
    )
    if sort_by:
        parted = parted.sort(sort_by)
    parted.write_parquet(out_dir, partition_cols=["part"])

    # manifest pass: per-partition row count + content hash, one Ray task per
    # partition (a serial driver loop here was a fixed cost that scaled with
    # partition count, not CPUs)
    import ray

    _hash_partition = hash_partition_task()
    written = []
    total = 0
    pending: dict[int, object] = {}
    for k in sorted(todo_ids):
        pdir = os.path.join(out_dir, f"part={k}")
        if os.path.isdir(pdir):
            pending[k] = _hash_partition.remote(pdir)
    for k in sorted(todo_ids):
        pdir = os.path.join(out_dir, f"part={k}")
        if k in pending:
            nrows, h = ray.get(pending[k])
        else:
            os.makedirs(pdir, exist_ok=True)
            nrows, h = 0, 0
        write_manifest(pdir, f"part={k}", nrows, h, input_fragments, time.time() - t0)
        written.append(f"part={k}")
        total += nrows
    return {"written": written, "skipped": skipped, "row_count": total}


def export_gexf(nodes: Dataset, edges: Dataset, path: str,
                max_rows: int = 500_000) -> str:
    """Driver-side GEXF export of a (small) graph — reference parity for the
    ``nx.write_gexf`` analysis exports (``network_analysis.ipynb`` cells
    59-60; SURVEY.md §2.1 S10, "GEXF optional driver-side export").

    The partitioned Parquet tables are the engine's real output; this is a
    convenience for graph tooling and refuses rows beyond ``max_rows`` — at
    scale, export a filtered subgraph instead.
    """
    import networkx as nx

    n_nodes, n_edges = nodes.count(), edges.count()
    if n_nodes + n_edges > max_rows:
        raise ValueError(
            f"graph too large for driver-side GEXF ({n_nodes}+{n_edges} rows > "
            f"{max_rows}); filter to a subgraph first"
        )
    g = nx.MultiGraph()
    for r in nodes.take_all():
        g.add_node(r["node_id"], kind=r["kind"], label=r["label"] or "",
                   qid=r["qid"] or "", n_mentions=int(r["n_mentions"] or 0))
    for r in edges.take_all():
        g.add_edge(r["src"], r["dst"], predicate=r["predicate"],
                   year=int(r["year"] or 0), weight=int(r["weight"] or 0))
    nx.write_gexf(g, path)
    return path


def export_ntriples(triples: Dataset, path: str) -> str:
    """Streaming N-Triples export of the cites-triples table — the
    interchange format KG tooling ingests directly (reference analogue: the
    notebook's ad-hoc graph exports; the partitioned Parquet tables remain
    the engine's real sink).

    Lines are formatted DISTRIBUTED (one vectorizable map per batch, IRIs
    percent-encoded) and streamed to the file through ``iter_batches`` — the
    driver holds one batch at a time, so memory stays O(batch) at any corpus
    size; a single output file is inherently a serial write, so for
    cluster-scale exports write the Parquet tables and shard the conversion
    instead.
    """
    from urllib.parse import quote

    def fmt(t: pa.Table) -> pa.Table:
        lines = [
            f"<urn:x-page:{quote(u or '', safe=':/')}> "
            f"<urn:x-rel:{p}> <urn:x-qid:{q}> ."
            for u, p, q in zip(t["url"].to_pylist(),
                               t["predicate"].to_pylist(),
                               t["qid"].to_pylist())
        ]
        return pa.table({"line": pa.array(lines, pa.string())})

    with open(path, "w", encoding="utf-8") as f:
        for b in (triples.map_batches(fmt, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow")):
            if len(b):
                f.write("\n".join(b["line"].to_pylist()))
                f.write("\n")
    return path


def materialize_graph(
    nodes: Dataset,
    edges: Dataset,
    mentions: Dataset | None,
    out_root: str,
    *,
    num_partitions: int = 8,
    input_fragments: list[str] | None = None,
) -> dict:
    """Write the full graph (nodes sorted by node_id, edges by (src,dst)).

    The three table writes are independent Dataset executions — run them
    concurrently from driver threads so their (small) exchanges and write
    tasks interleave instead of serializing. On small CPU budgets the writes
    run serially instead: concurrent executions of un-materialized flagship
    branches compete for the same few CPU slots (observed as a stall at 8
    CPUs while the tagger and linker still ran as actor pools).
    """
    from concurrent.futures import ThreadPoolExecutor

    import ray as _ray

    cpus = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    workers = 3 if cpus >= 16 else 1

    # fsspec.implementations.http import-race workaround lives at module
    # import time (top of this file) so it is never a mid-call side effect
    jobs = {
        "nodes": (nodes, os.path.join(out_root, "nodes"), "node_id", ["node_id"]),
        "edges": (edges, os.path.join(out_root, "edges"), "src", ["src", "dst", "year"]),
    }
    if mentions is not None:
        jobs["mentions"] = (mentions, os.path.join(out_root, "mentions"), "url", None)

    def run(job):
        ds, out_dir, key, sort_by = job
        return write_partitioned(
            ds, out_dir, key, num_partitions=num_partitions,
            sort_by=sort_by, input_fragments=input_fragments,
        )

    with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = {name: pool.submit(run, job) for name, job in jobs.items()}
        return {name: f.result() for name, f in futures.items()}
