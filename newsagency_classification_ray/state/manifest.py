"""Per-partition lineage manifests → resumable, idempotent output.

Design (FIXTURES.md F6; modeled on the reference's MANIFEST dedupe in
``lib/inception_preprocessing/prepare_inception.py:122-141`` and its
result-existence skip ``main.py:188-195``):

* every output partition directory carries a ``_manifest.json`` with
  ``{partition_key, input_fragments, row_count, content_hash, wall_s,
  engine_version}``;
* a partition is *complete* iff its manifest exists and parses — manifests are
  written atomically (tmp + rename) **after** the partition's data files, so a
  crashed run leaves no manifest and the partition is redone from lineage;
* ``content_hash`` is an order-insensitive 64-bit sum of per-row hashes
  (``pandas.util.hash_pandas_object`` — stable across processes, unlike
  builtin ``hash``), so retried/resumed writes can be verified idempotent.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterable

import pandas as pd
import pyarrow as pa

MANIFEST_NAME = "_manifest.json"
_MASK = (1 << 64) - 1


# Arrow integer/bool columns convert to pandas' nullable dtypes, so a null
# keeps its own fixed hash instead of turning the whole column into float64
# (or object) in just the batches that contain one: the hash of a table then
# no longer depends on how its rows are split into row groups. Null-free
# columns hash exactly as their numpy dtypes do.
_NULLABLE_DTYPES = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
    pa.bool_(): pd.BooleanDtype(),
}


def batch_content_hash(batch: pa.Table | pd.DataFrame) -> int:
    """Order-insensitive content hash of a batch (sum of row hashes mod 2^64),
    independent of how the rows are split into batches."""
    df = (batch.to_pandas(types_mapper=_NULLABLE_DTYPES.get)
          if isinstance(batch, pa.Table) else batch)
    if len(df) == 0:
        return 0
    return int(pd.util.hash_pandas_object(df, index=False).sum()) & _MASK


def combine_hashes(hashes: Iterable[int]) -> int:
    total = 0
    for h in hashes:
        total = (total + h) & _MASK
    return total


def write_manifest(
    partition_dir: str,
    partition_key: str,
    row_count: int,
    content_hash: int,
    input_fragments: list[str] | None = None,
    wall_s: float | None = None,
    extra: dict[str, Any] | None = None,
    data_files: list[str] | None = None,
) -> str:
    """``data_files`` (basenames, sorted) is the COMMIT POINT for which
    files constitute the partition: readers and vacuum honor the list, so
    a file present on disk but absent from the list is a GC-able orphan,
    never double-counted data (atomic compaction depends on this). When
    omitted the manifest records every ``*.parquet`` currently in the
    directory — correct for writers that call this right after their own
    data files land."""
    os.makedirs(partition_dir, exist_ok=True)
    path = os.path.join(partition_dir, MANIFEST_NAME)
    if data_files is None:
        data_files = sorted(
            f for f in os.listdir(partition_dir) if f.endswith(".parquet"))
    doc = {
        "partition_key": partition_key,
        "input_fragments": input_fragments or [],
        "row_count": int(row_count),
        "content_hash": int(content_hash),
        "wall_s": wall_s,
        "written_at": time.time(),
        "data_files": sorted(data_files),
        **(extra or {}),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f)
    os.replace(tmp, path)  # atomic publish: manifest presence == completion
    return path


def read_manifest(partition_dir: str) -> dict[str, Any] | None:
    path = os.path.join(partition_dir, MANIFEST_NAME)
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def is_complete(partition_dir: str) -> bool:
    return read_manifest(partition_dir) is not None


def incomplete_partitions(out_root: str, keys: Iterable[str]) -> list[str]:
    """Partition keys under ``out_root`` that still need computing (resume set)."""
    return [k for k in keys if not is_complete(os.path.join(out_root, k))]


def partition_data_files(partition_dir: str) -> list[str]:
    """The files that ARE the partition, per the manifest's ``data_files``
    commit list (full paths, sorted). Readers must use this instead of
    globbing ``*.parquet`` — after a crashed compaction both the compacted
    file and the originals can coexist on disk, and only the manifest says
    which set is live. Falls back to the glob for legacy manifests that
    predate the field (those directories were never compacted mid-flight,
    so the glob is the list)."""
    import glob

    m = read_manifest(partition_dir)
    if m is not None and m.get("data_files") is not None:
        return sorted(os.path.join(partition_dir, f) for f in m["data_files"])
    return sorted(glob.glob(os.path.join(partition_dir, "*.parquet")))


def find_orphans(out_root: str) -> dict[str, list[str]]:
    """VACUUM candidate census: files sitting in partition directories
    that have NO valid manifest (crashed writes, stray copies, a manifest
    deleted to force a redo), plus — in PUBLISHED partitions — files absent
    from the manifest's ``data_files`` commit list (e.g. pre-compaction
    originals left by a crash between manifest publish and cleanup). By
    the atomic-publish invariant (manifest written after data, tmp+rename)
    both kinds are provably not live data — safe to delete. Returns
    ``{partition_dir: [files...]}`` for every partition owning at least
    one orphaned file."""
    out: dict[str, list[str]] = {}
    if not os.path.isdir(out_root):
        return out
    for name in sorted(os.listdir(out_root)):
        pdir = os.path.join(out_root, name)
        if not os.path.isdir(pdir):
            continue
        m = read_manifest(pdir)
        if m is None:
            files = sorted(
                os.path.join(pdir, f) for f in os.listdir(pdir)
                if f != MANIFEST_NAME)
        elif m.get("data_files") is not None:
            live = set(m["data_files"])
            files = sorted(
                os.path.join(pdir, f) for f in os.listdir(pdir)
                if f != MANIFEST_NAME and f not in live)
        else:  # legacy manifest: owns everything in the directory
            files = []
        if files:
            out[pdir] = files
    return out


def vacuum(out_root: str) -> dict[str, list[str]]:
    """Delete every orphaned partial found by :func:`find_orphans` and
    return what was removed — the lakehouse VACUUM step a resumable
    writer needs so crashed runs cannot leak disk forever. Unpublished
    partition directories are removed whole; a PUBLISHED partition keeps
    its manifest and live ``data_files`` and loses only the orphaned
    extras.

    Single-writer assumption: nothing else may write under ``out_root``
    while this runs. An in-flight :func:`compact_partition` holds a
    ``compacted.parquet.tmp`` (then a ``compacted.parquet``) that no
    manifest lists yet, so a concurrent vacuum deletes it as an orphan:
    the compaction then fails, or publishes a manifest naming a file that
    is gone. An unpublished partition that a writer is still filling is
    removed whole the same way. Run vacuum only between jobs, never
    beside a writer or a compaction."""
    import shutil

    orphans = find_orphans(out_root)
    for pdir, files in orphans.items():
        if is_complete(pdir):
            for fp in files:
                try:
                    os.remove(fp)
                except OSError:
                    pass
        else:
            shutil.rmtree(pdir, ignore_errors=True)
    return orphans


def merkle_tree(out_root: str, fanout: int = 16) -> dict:
    """ANTI-ENTROPY partition digest (Dynamo/Cassandra-style Merkle
    summary) over a manifested output directory: leaves are the
    per-partition ``(content_hash, row_count)`` pairs the manifests
    already record, grouped into ``fanout`` buckets by a stable hash of
    the partition key; bucket digests roll up into one root digest. Two
    replicas (or two runs) compare roots in O(1), then only the buckets
    whose digests differ, then only those buckets' partitions — the sync
    cost scales with the DIVERGENCE, not the table size. Returns
    ``{root, fanout, buckets: {bucket: digest}, leaves: {key: (hash,
    rows)}}`` — the fanout travels WITH the tree so a diff can never
    bucket leaves under a different fanout than the trees were built
    with (which would silently skip divergent partitions).
    """
    import hashlib

    leaves: dict[str, tuple[int, int]] = {}
    if os.path.isdir(out_root):
        for name in sorted(os.listdir(out_root)):
            pdir = os.path.join(out_root, name)
            m = read_manifest(pdir) if os.path.isdir(pdir) else None
            if m is not None:
                leaves[name] = (int(m["content_hash"]), int(m["row_count"]))

    def bucket_of(key: str) -> int:
        return int.from_bytes(hashlib.md5(key.encode()).digest()[:4],
                              "little") % fanout

    bdata: dict[int, list[str]] = {}
    for k in leaves:
        bdata.setdefault(bucket_of(k), []).append(k)
    buckets: dict[int, str] = {}
    for b, keys in bdata.items():
        h = hashlib.md5()
        for k in sorted(keys):
            h.update(f"{k}|{leaves[k][0]}|{leaves[k][1]};".encode())
        buckets[b] = h.hexdigest()
    root_h = hashlib.md5()
    for b in sorted(buckets):
        root_h.update(f"{b}:{buckets[b]};".encode())
    return {"root": root_h.hexdigest(), "fanout": fanout,
            "buckets": buckets, "leaves": leaves}


def merkle_diff(tree_a: dict, tree_b: dict) -> dict:
    """Compare two :func:`merkle_tree` summaries: equal roots short-
    circuit to an empty diff; otherwise only partitions inside the
    DIFFERING buckets are inspected (keys in equal buckets are provably
    identical and never touched — the anti-entropy saving). The bucket
    fanout comes FROM the trees (raising on a mismatch) — an independent
    parameter here could silently mis-bucket leaves and skip divergent
    partitions. Returns ``{only_a, only_b, changed}`` (partition-key
    lists, sorted)."""
    import hashlib

    fa = int(tree_a.get("fanout", 16))
    fb = int(tree_b.get("fanout", 16))
    if fa != fb:
        raise ValueError(
            f"merkle_diff: trees built with different fanouts "
            f"({fa} vs {fb}) — bucket digests are not comparable")
    fanout = fa
    if tree_a["root"] == tree_b["root"]:
        return {"only_a": [], "only_b": [], "changed": []}
    differing = {b for b in set(tree_a["buckets"]) | set(tree_b["buckets"])
                 if tree_a["buckets"].get(b) != tree_b["buckets"].get(b)}

    def bucket_of(key: str) -> int:
        return int.from_bytes(hashlib.md5(key.encode()).digest()[:4],
                              "little") % fanout

    la = {k: v for k, v in tree_a["leaves"].items()
          if bucket_of(k) in differing}
    lb = {k: v for k, v in tree_b["leaves"].items()
          if bucket_of(k) in differing}
    only_a = sorted(set(la) - set(lb))
    only_b = sorted(set(lb) - set(la))
    changed = sorted(k for k in set(la) & set(lb) if la[k] != lb[k])
    return {"only_a": only_a, "only_b": only_b, "changed": changed}


def compact_partition(partition_dir: str) -> dict:
    """OPTIMIZE step: rewrite a published partition's many small data
    files into ONE parquet file, preserving content exactly — the
    order-insensitive ``content_hash`` and ``row_count`` are recomputed
    and must equal the manifest's (raises otherwise; the manifest is then
    updated in place with a ``compacted_from`` note). Small-file
    proliferation is the natural debris of parallel writers; compaction
    trades a rewrite for read efficiency without touching lineage.
    Returns ``{files_before, files_after, row_count}``; a partition with
    ≤1 data file is a no-op."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    m = read_manifest(partition_dir)
    if m is None:
        raise ValueError(f"compact_partition: {partition_dir} has no "
                         f"manifest (unpublished partial — vacuum it)")
    files = partition_data_files(partition_dir)
    if len(files) <= 1:
        return {"files_before": len(files), "files_after": len(files),
                "row_count": int(m["row_count"])}
    if m.get("data_files") is None:
        # legacy manifest: publish the current file list first, so from
        # here on readers resolve the partition via the commit list and
        # the compacted tmp/final file below can never be double-read
        write_manifest(partition_dir, m["partition_key"], m["row_count"],
                       m["content_hash"], m.get("input_fragments"),
                       m.get("wall_s"),
                       data_files=[os.path.basename(f) for f in files])
    parts, hashes, nrows = [], [], 0
    for fp in files:
        f = pq.ParquetFile(fp)
        for rg in range(f.num_row_groups):
            t = f.read_row_group(rg)
            parts.append(t)
            nrows += len(t)
            hashes.append(batch_content_hash(t))
    h = combine_hashes(hashes)
    if nrows != int(m["row_count"]) or h != int(m["content_hash"]):
        raise ValueError(
            f"compact_partition: {partition_dir} content "
            f"({nrows} rows, hash {h}) does not match its manifest "
            f"({m['row_count']} rows, hash {m['content_hash']}) — "
            f"refusing to rewrite corrupted data")
    merged = pa.concat_tables(parts, promote_options="default")
    tmp = os.path.join(partition_dir, "compacted.parquet.tmp")
    pq.write_table(merged, tmp)
    final = os.path.join(partition_dir, "compacted.parquet")
    os.replace(tmp, final)
    # COMMIT POINT: the manifest's data_files flips to the compacted file
    # atomically (tmp+rename). A crash anywhere in this function leaves a
    # manifest whose commit list matches exactly one consistent file set —
    # originals before the flip, the compacted file after — and the files
    # on the losing side are orphans that vacuum() GCs, never double-read.
    write_manifest(partition_dir, m["partition_key"], nrows, h,
                   m.get("input_fragments"), m.get("wall_s"),
                   extra={"compacted_from": len(files)},
                   data_files=[os.path.basename(final)])
    for fp in files:
        if os.path.abspath(fp) != os.path.abspath(final):
            try:
                os.remove(fp)
            except OSError:
                pass  # leftover originals are vacuum-able orphans
    return {"files_before": len(files), "files_after": 1,
            "row_count": nrows}
