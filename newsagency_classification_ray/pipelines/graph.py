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
order-insensitive content hashes so idempotence is verifiable, and each
edges manifest also counts its rows per predicate. One writer,
:func:`_write_and_publish`, writes these tables and the extraction
checkpoints of ``kg.extract_mentions_checkpointed`` alike, hashing the
rows it writes instead of reading its files back.
:func:`materialize_graph` runs the three table writes at the same time.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import time
import uuid
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Dataset
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink

from ..state.manifest import (
    batch_content_hash,
    combine_hashes,
    incomplete_partitions,
    partition_data_files,
    read_manifest,
    write_manifest,
)
from .kg import MENTION_ROWS_PER_BLOCK


class _PartitionSink(Datasink):
    """Each write task puts its rows of each ``<col>=<value>`` partition,
    without ``col``, in ``<col>=<value>/<write uuid>_<task_idx:06d>.parquet``
    (names sort in block order; a retried task overwrites its own file) and
    returns ``(key, file, rows, content_hash, counts)`` per file, hashed in
    memory; ``counts`` maps each value of ``count_col`` to its rows there
    (empty without a ``count_col``)."""

    def __init__(self, out_dir: str, col: str, count_col: str | None = None):
        self.out_dir, self.col, self.count_col = out_dir, col, count_col
        self.write_uuid = uuid.uuid4().hex
        self.results: list[tuple[str, str, int, int, dict[str, int]]] = []

    def write(self, blocks, ctx) -> list[tuple[str, str, int, int, dict[str, int]]]:
        tables = [t for t in (BlockAccessor.for_block(b).to_arrow() for b in blocks)
                  if len(t)]
        if not tables:
            return []
        t = pa.concat_tables(tables, promote_options="default")
        # one stable sort, one slice per value: rows keep their arrival order
        t = t.take(pc.sort_indices(t[self.col]))
        runs = pc.run_end_encode(t[self.col].combine_chunks())
        name = f"{self.write_uuid}_{ctx.task_idx:06d}.parquet"
        out, start = [], 0
        for value, end in zip(runs.values.to_pylist(), runs.run_ends.to_pylist()):
            rows = t.slice(start, end - start).drop_columns([self.col])
            start = end
            key = f"{self.col}={value}"
            pdir = os.path.join(self.out_dir, key)
            os.makedirs(pdir, exist_ok=True)
            pq.write_table(rows, os.path.join(pdir, name))
            counts = ({c["values"]: c["counts"]
                       for c in pc.value_counts(rows[self.count_col]).to_pylist()}
                      if self.count_col else {})
            out.append((key, name, len(rows), batch_content_hash(rows), counts))
        return out

    def on_write_complete(self, write_result) -> None:
        self.results = [r for task in write_result.write_returns for r in task]


@contextlib.contextmanager
def _preserving_order(*datasets: Dataset):
    """Run the block with Ray Data's ``preserve_order`` set on the contexts
    of ``datasets`` and restore each afterwards. A context is shared by
    every dataset derived from the same source (``ExecutionPlan.copy`` is
    shallow), so the flag is set once for all the writes it covers, and
    restored only after the last of them returns."""
    opts = list({id(o): o for o in (ds.context.execution_options
                                    for ds in datasets)}.values())
    was = [o.preserve_order for o in opts]
    for o in opts:
        o.preserve_order = True
    try:
        yield
    finally:
        for o, w in zip(opts, was):
            o.preserve_order = w


def _write_and_publish(
    ds: Dataset,
    out_dir: str,
    col: str,
    fragments: dict[str, list[str] | None],
    extra: dict | None = None,
    count_col: str | None = None,
) -> tuple[list[str], int]:
    """THE writer of every manifest-checked table: scrub → one partitioned
    write that counts and hashes what it writes → manifest after data.

    ``fragments`` maps each partition key to redo (``<col>=<value>``, in
    the order to publish) to its input fragments; ``ds`` holds exactly the
    rows of those partitions. Stale partials of a crashed run are removed
    first (no manifest ⇒ not published), then ``ds`` is written once
    through :class:`_PartitionSink`. The caller runs it under
    :func:`_preserving_order`, so the write tasks get the blocks, and their
    ``task_idx``, in block order however upstream tasks finish. Only after
    it returns, each partition's manifest is published, with the row count
    and content hash summed over its files and ``data_files`` naming
    exactly those files: a crash at any point leaves no manifest or a
    correct one. A partition that received no rows gets its directory made
    and a 0-row manifest. With ``count_col``, each manifest also holds
    ``rows_by_<count_col>``: its rows per value of that column.

    Returns the published keys and their total row count.
    """
    t0 = time.time()
    for key in fragments:
        pdir = os.path.join(out_dir, key)
        if os.path.isdir(pdir):
            shutil.rmtree(pdir)
    sink = _PartitionSink(out_dir, col, count_col)
    ds.write_datasink(sink)
    files = {key: [] for key in fragments}
    for key, *file in sink.results:
        files[key].append(file)
    total = 0
    for key, frags in fragments.items():
        pdir = os.path.join(out_dir, key)
        os.makedirs(pdir, exist_ok=True)
        nrows = sum(n for _, n, _, _ in files[key])
        fields = dict(extra or {})
        if count_col:
            by = Counter()
            for *_, counts in files[key]:
                by.update(counts)
            fields[f"rows_by_{count_col}"] = dict(sorted(by.items()))
        write_manifest(pdir, key, nrows, combine_hashes(h for _, _, h, _ in files[key]),
                       frags, time.time() - t0, fields,
                       data_files=[name for name, _, _, _ in files[key]])
        total += nrows
    return list(fragments), total


def _crc_bucket_col(col: pa.ChunkedArray | pa.Array, buckets: int) -> pa.Array:
    """Deterministic partition id per key — vectorized (a per-row Python
    crc32 loop here would serialize the write path at scale). Uses pandas'
    stable siphash (``hash_pandas_object``, fixed default key — identical
    across processes and reruns, which is what resume requires)."""
    import pandas as pd

    s = pd.Series(col.to_pandas(), copy=False).astype(str)
    h = pd.util.hash_pandas_object(s, index=False).to_numpy()
    return pa.array((h % buckets).astype("int32"))


def _check_partition_count(out_dir: str, num_partitions: int) -> None:
    """Raise if ``out_dir`` holds partitions of a write with another
    partition count. Rows go to ``hash % num_partitions``, so under another
    count a rerun would write rows already published elsewhere, and every
    partition would still look complete. A ``part=<k>`` directory with
    ``k >= num_partitions`` also raises, and so does a manifest older than
    the ``num_partitions`` field: its count is unknown."""
    names = os.listdir(out_dir) if os.path.isdir(out_dir) else []
    for name in names:
        k = name.removeprefix("part=")
        if k == name or not k.isdigit():
            continue
        m = read_manifest(os.path.join(out_dir, name))
        recorded = m.get("num_partitions", "unknown") if m else f">{k}"
        if int(k) >= num_partitions or (m and recorded != num_partitions):
            raise ValueError(
                f"{os.path.join(out_dir, name)} belongs to a write with "
                f"num_partitions={recorded}, not {num_partitions}: rerun with "
                f"that count or write into a fresh directory")


def write_partitioned(
    ds: Dataset,
    out_dir: str,
    key_col: str,
    *,
    num_partitions: int = 8,
    sort_by: list[str] | None = None,
    input_fragments: list[str] | None = None,
) -> dict:
    """Hash-partition ``ds`` on ``key_col`` into ``part=<k>`` directories,
    redoing only the partitions without a manifest.

    Returns summary {written: [...], skipped: [...], row_count, wall_s}.
    The partition id is a deterministic hash bucket of ``key_col`` so a
    resumed run maps every row to the same partition; each manifest records
    ``num_partitions``, and a rerun with another count raises
    (:func:`_check_partition_count`) before anything is scrubbed or written.
    ``sort_by`` sorts the rows globally before the write, so every file is
    sorted. The write itself is :func:`_write_and_publish`, each partition's
    fragments being ``input_fragments``.
    """
    _check_partition_count(out_dir, num_partitions)
    with _preserving_order(ds):
        return _write_partitions(ds, out_dir, key_col, num_partitions,
                                 input_fragments, sort_by=sort_by)


def _write_partitions(
    ds: Dataset,
    out_dir: str,
    key_col: str,
    num_partitions: int,
    input_fragments: list[str] | None,
    *,
    sort_by: list[str] | None = None,
    count_col: str | None = None,
) -> dict:
    """:func:`write_partitioned` after its partition-count check, run
    under the caller's :func:`_preserving_order`."""
    t0 = time.perf_counter()
    keys = [f"part={k}" for k in range(num_partitions)]
    todo = set(incomplete_partitions(out_dir, keys))
    skipped = sorted(set(keys) - todo)
    if not todo:
        return {"written": [], "skipped": skipped, "row_count": 0,
                "wall_s": time.perf_counter() - t0}
    todo_ids = sorted(int(k.split("=")[1]) for k in todo)
    ids = pa.array(todo_ids, type=pa.int32())

    def add_part(t: pa.Table) -> pa.Table:
        t = t.append_column("part", _crc_bucket_col(t[key_col], num_partitions))
        return t.filter(pc.is_in(t["part"], value_set=ids))

    # one block per MENTION_ROWS_PER_BLOCK rows, so the write sees as many
    # blocks (one file per partition per block) as the rows need, whatever
    # the union or aggregate upstream produced
    parted = ds.map_batches(add_part, batch_format="pyarrow",
                            batch_size=MENTION_ROWS_PER_BLOCK)
    if sort_by:
        parted = parted.sort(sort_by)
    written, total = _write_and_publish(
        parted, out_dir, "part", {f"part={k}": input_fragments for k in todo_ids},
        {"num_partitions": num_partitions}, count_col)
    return {"written": written, "skipped": skipped, "row_count": total,
            "wall_s": time.perf_counter() - t0}


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
    mentions: Dataset,
    out_root: str,
    *,
    num_partitions: int = 8,
    input_fragments: list[str] | None = None,
) -> dict:
    """Write the graph's three tables at the same time, one thread per
    table, keyed by node_id, src and url, with no sort: the merges of
    ``kg.graph_tables`` already hold nodes in node_id order and edges in
    (src, dst, predicate, year) order, which is (src, dst, year) order as
    src (a url or a QID) fixes the predicate, and the writer keeps block
    order. Each write spends its time waiting on Ray's per-execution
    latency more than computing, so they overlap even on one core.

    Every table's partition count is checked before any write starts.
    ``preserve_order`` is set once, before the first write, on the
    contexts the three datasets share, and restored after the last one
    returns. Each edges manifest counts its rows per predicate
    (``rows_by_predicate``). Returns ``{table: summary}`` as
    :func:`write_partitioned` does, ``wall_s`` being each write's own wall
    time."""
    tables = {"nodes": (nodes, "node_id", None), "edges": (edges, "src", "predicate"),
              "mentions": (mentions, "url", None)}
    for name in tables:
        _check_partition_count(os.path.join(out_root, name), num_partitions)

    def write(name: str) -> dict:
        ds, key, count_col = tables[name]
        return _write_partitions(ds, os.path.join(out_root, name), key, num_partitions,
                                 input_fragments, count_col=count_col)

    with _preserving_order(nodes, edges, mentions), \
            ThreadPoolExecutor(len(tables)) as pool:
        futures = {name: pool.submit(write, name) for name in tables}
        return {name: f.result() for name, f in futures.items()}


def _published_rows(table_dir: str, predicate: str | None = None) -> int:
    """Rows published in ``table_dir``'s ``part=<k>`` partitions, read
    from their manifests; with ``predicate``, only the edges of that
    predicate, from each manifest's ``rows_by_predicate``. A manifest
    written before that field is counted from its data files' predicate
    column."""
    total = 0
    for pdir in glob.glob(os.path.join(table_dir, "part=*")):
        m = read_manifest(pdir)
        if predicate is None:
            total += m["row_count"]
        elif "rows_by_predicate" in m:
            total += m["rows_by_predicate"].get(predicate, 0)
        else:
            for f in partition_data_files(pdir):
                col = pq.read_table(f, columns=["predicate"])["predicate"]
                total += pc.sum(pc.equal(col, predicate)).as_py() or 0
    return total
