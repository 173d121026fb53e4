"""Round-5 fixes: atomic compaction commit list, merkle fanout travel,
vectorized co-occurrence pair kernel ≡ per-group formulation."""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from newsagency_classification_ray.pipelines.kg import (
    _emit_pairs_sorted_runs, cooccurrence_pair_contribs)
from newsagency_classification_ray.state.manifest import (
    batch_content_hash, compact_partition, find_orphans, merkle_diff,
    merkle_tree, partition_data_files, read_manifest, vacuum,
    write_manifest)


def _mk_partition(pdir: str, n_files: int = 3) -> int:
    os.makedirs(pdir, exist_ok=True)
    rows, hashes = 0, []
    for i in range(n_files):
        t = pa.table({"x": pa.array([i * 10 + j for j in range(4)],
                                    pa.int64())})
        pq.write_table(t, os.path.join(pdir, f"f{i}.parquet"))
        rows += len(t)
        hashes.append(batch_content_hash(t))
    h = sum(hashes) & ((1 << 64) - 1)
    write_manifest(pdir, os.path.basename(pdir), rows, h)
    return rows


def test_manifest_records_data_files(tmp_path):
    pdir = str(tmp_path / "part=0")
    _mk_partition(pdir)
    m = read_manifest(pdir)
    assert m["data_files"] == ["f0.parquet", "f1.parquet", "f2.parquet"]
    assert [os.path.basename(f) for f in partition_data_files(pdir)] == \
        m["data_files"]


def test_compact_commit_point_is_the_manifest(tmp_path):
    """Simulate the crash window ADVICE flagged: manifest has flipped to
    the compacted file but the originals were never deleted. Readers via
    partition_data_files must see exactly one copy; vacuum must GC the
    originals without touching the live file."""
    pdir = str(tmp_path / "part=0")
    rows = _mk_partition(pdir)
    res = compact_partition(pdir)
    assert res == {"files_before": 3, "files_after": 1, "row_count": rows}
    # recreate the crash window: put the originals back on disk
    for i in range(3):
        t = pa.table({"x": pa.array([i * 10 + j for j in range(4)],
                                    pa.int64())})
        pq.write_table(t, os.path.join(pdir, f"f{i}.parquet"))
    # manifest commit list still says: only the compacted file is live
    live = partition_data_files(pdir)
    assert [os.path.basename(f) for f in live] == ["compacted.parquet"]
    total = sum(len(pq.read_table(f)) for f in live)
    assert total == rows  # no double counting despite 4 files on disk
    orph = find_orphans(str(tmp_path))
    assert sorted(os.path.basename(f) for f in orph[pdir]) == \
        ["f0.parquet", "f1.parquet", "f2.parquet"]
    vacuum(str(tmp_path))
    left = sorted(os.path.basename(f)
                  for f in glob.glob(os.path.join(pdir, "*.parquet")))
    assert left == ["compacted.parquet"]
    assert read_manifest(pdir) is not None  # published partition survives


def test_compact_of_legacy_manifest_publishes_list_first(tmp_path):
    pdir = str(tmp_path / "part=1")
    rows = _mk_partition(pdir)
    # strip the data_files field to simulate a manifest written before
    # the commit-list era
    mp = os.path.join(pdir, "_manifest.json")
    m = json.load(open(mp))
    del m["data_files"]
    json.dump(m, open(mp, "w"))
    res = compact_partition(pdir)
    assert res["files_after"] == 1
    assert read_manifest(pdir)["data_files"] == ["compacted.parquet"]
    assert sum(len(pq.read_table(f))
               for f in partition_data_files(pdir)) == rows


def test_merkle_fanout_travels_with_tree(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for root in (a, b):
        for k in ("part=0", "part=1"):
            pdir = os.path.join(root, k)
            os.makedirs(pdir)
            write_manifest(pdir, k, 5, 11, data_files=[])
    ta4 = merkle_tree(a, fanout=4)
    tb4 = merkle_tree(b, fanout=4)
    assert ta4["fanout"] == 4
    assert merkle_diff(ta4, tb4) == {"only_a": [], "only_b": [],
                                     "changed": []}
    # divergence under non-default fanout is found (the old independent
    # fanout parameter silently mis-bucketed leaves here)
    write_manifest(os.path.join(b, "part=1"), "part=1", 6, 99,
                   data_files=[])
    d = merkle_diff(ta4, merkle_tree(b, fanout=4))
    assert d["changed"] == ["part=1"]
    # mismatched fanouts refuse to compare
    import pytest

    with pytest.raises(ValueError):
        merkle_diff(ta4, merkle_tree(b, fanout=8))


def _pairs_reference(counts: pa.Table) -> set[tuple]:
    """Independent per-group pair derivation (the old map_groups
    semantics) over an in-memory count table."""
    import collections

    groups = collections.defaultdict(list)
    for r in counts.to_pylist():
        groups[(r["host"], int(r["year"]))].append((r["qid"], int(r["n"])))
    out = set()
    for (host, year), members in groups.items():
        members = sorted(members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                out.add((members[i][0], members[j][0], year, 1,
                         members[i][1], members[j][1]))
    return out


def test_cooccurrence_pair_kernel_matches_per_group(ray_session):
    rng = np.random.RandomState(5)
    hosts = [f"h{i}.example" for i in range(17)]
    rows = []
    seen = set()
    for _ in range(400):
        h = hosts[rng.randint(len(hosts))]
        y = int(1870 + rng.randint(4))
        q = f"Q{rng.randint(12)}"
        if (h, y, q) in seen:
            continue
        seen.add((h, y, q))
        rows.append((h, y, q, int(1 + rng.randint(9))))
    t = pa.table({
        "host": pa.array([r[0] for r in rows], pa.string()),
        "year": pa.array([r[1] for r in rows], pa.int32()),
        "qid": pa.array([r[2] for r in rows], pa.string()),
        "n": pa.array([r[3] for r in rows], pa.int64()),
    })
    want = _pairs_reference(t)
    # many small input blocks → the range sort must still co-locate each
    # (host, year) group in one output block for the kernel to see it whole
    ds = ray.data.from_arrow(t).repartition(13)
    got_t = pa.concat_tables(list(
        cooccurrence_pair_contribs(ds).iter_batches(batch_format="pyarrow")))
    got = set(zip(got_t["src_qid"].to_pylist(), got_t["dst_qid"].to_pylist(),
                  (int(y) for y in got_t["year"].to_pylist()),
                  (int(w) for w in got_t["weight"].to_pylist()),
                  (int(a) for a in got_t["freq_src"].to_pylist()),
                  (int(b) for b in got_t["freq_dst"].to_pylist())))
    assert got == want
    # canonical ordering invariant: src < dst everywhere
    assert bool(pc.all(pc.less(got_t["src_qid"],
                               got_t["dst_qid"])).as_py())


def test_pair_kernel_empty_and_singleton_blocks():
    empty = pa.table({"host": pa.array([], pa.string()),
                      "year": pa.array([], pa.int32()),
                      "qid": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})
    assert len(_emit_pairs_sorted_runs(empty)) == 0
    single = pa.table({"host": pa.array(["a"]), "year": pa.array([1900]),
                       "qid": pa.array(["Q1"]), "n": pa.array([3])})
    assert len(_emit_pairs_sorted_runs(single)) == 0


def test_skew_join_detects_per_block_diffuse_hot_key(ray_session,
                                                     monkeypatch):
    """The floor-bound armor (ops.py skew_join): a hot key whose per-block
    counts fall below each block's top-64 cutoff in MOST blocks. The plain
    per-key top-list sum (est=500) sits under hot_threshold=530, so the
    pre-floor-bound detector missed it; the truncation-floor correction
    (D=60 here) lowers the effective threshold to 470 and the key routes
    through the salted path — asserted by spying the join key — with the
    result still exactly equal to the plain hash join."""
    import newsagency_classification_ray.ops as ops_mod
    from newsagency_classification_ray.ops import hash_join, skew_join

    blocks = []
    # 10 dominant blocks: H in the top list (50 each -> est 500), no
    # truncation (floor 0)
    for b in range(10):
        keys = ["H"] * 50 + [f"dom{b}_{i}" for i in range(10)]
        blocks.append(pa.table({
            "k": pa.array(keys, pa.string()),
            "lval": pa.array(np.arange(len(keys)) + b * 1000,
                             pa.int64())}))
    # 20 diffuse blocks: 70 unique decoys x3 beat H's x2, so H is
    # truncated out of the top-64 list; floor = 3 per block -> D = 60
    for b in range(20):
        keys = [f"dif{b}_{i}" for i in range(70) for _ in range(3)] + \
            ["H", "H"]
        blocks.append(pa.table({
            "k": pa.array(keys, pa.string()),
            "lval": pa.array(np.arange(len(keys)) + (b + 10) * 1000,
                             pa.int64())}))
    true_h = sum(sum(1 for k in t["k"].to_pylist() if k == "H")
                 for t in blocks)
    assert true_h == 540  # genuinely above the 530 threshold
    left = ray.data.from_arrow(blocks)
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(["H"] + [f"dif0_{i}" for i in range(5)], pa.string()),
        "rval": pa.array(np.arange(6, dtype=np.int64) * 10, pa.int64())}))

    join_keys = []
    orig = ops_mod.hash_join

    def spy(l, r, **kw):
        join_keys.append(kw.get("on"))
        return orig(l, r, **kw)

    monkeypatch.setattr(ops_mod, "hash_join", spy)
    got = skew_join(left, right, "k", salt=4, hot_threshold=530)
    rows_got = sorted((r["k"], r["lval"], r["rval"])
                      for r in got.take_all())
    monkeypatch.setattr(ops_mod, "hash_join", orig)
    exp = hash_join(left, right, on=("k",))
    rows_exp = sorted((r["k"], r["lval"], r["rval"])
                      for r in exp.take_all())
    assert rows_got == rows_exp
    # the salted path engaged: the executed join keyed on (k, _salt)
    assert join_keys and join_keys[-1] == ("k", "_salt")


def test_user_window_kernels_block_split_invariance(ray_session):
    """The r5 coverage/streak kernels rely on the range sort co-locating
    each user's rows in one block; verify against a driver-side reference
    under aggressively small input blocks."""
    import collections

    import newsagency_classification_ray.queries as Q

    rng = np.random.RandomState(11)
    n = 3000
    users = rng.randint(0, 37, n).astype(np.int64)
    ts = np.sort(rng.randint(0, 5_000_000_000, n).astype(np.int64))
    rng.shuffle(ts)
    types = np.array(["view", "cart", "purchase"])[rng.randint(0, 3, n)]
    eid = np.arange(n, dtype=np.int64)
    t = pa.table({
        "user_id": pa.array(users),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "event_id": pa.array(eid),
        "event_type": pa.array(types),
    })
    W = Q._COVER_W_US

    ref_cov = {}
    ref_streak = {}
    by_user = collections.defaultdict(list)
    for u, s, e, ty in zip(users, ts, eid, types):
        by_user[int(u)].append((int(s), int(e), ty))
    for u, rows in by_user.items():
        rows.sort()
        tss = [r[0] for r in rows]
        cov = sum(min(b - a, W) for a, b in zip(tss, tss[1:])) + W
        isl = 1 + sum(1 for a, b in zip(tss, tss[1:]) if b - a > W)
        ref_cov[u] = (cov, isl)
        best, count, cur = 1, 1, 1
        prev = rows[0][2]
        for _, _, ty in rows[1:]:
            if ty == prev:
                cur += 1
            else:
                cur = 1
                count += 1
            best = max(best, cur)
            prev = ty
        ref_streak[u] = (best, count)

    ds = ray.data.from_arrow(t).repartition(17)
    monkey_read = lambda sf_dir, name, cols: ds.map_batches(
        lambda b, c=tuple(cols): b.select(list(c)), batch_format="pyarrow")
    import newsagency_classification_ray.ops as ops_mod
    orig = ops_mod.read_table
    ops_mod.read_table = monkey_read
    try:
        cov = {int(r["user_id"]): (int(r["covered_us"]), int(r["n_islands"]))
               for r in Q.q_events_user_coverage("ignored").take_all()}
        st = {int(r["user_id"]): (int(r["max_streak"]), int(r["n_runs"]))
              for r in Q.q_events_user_streaks("ignored").take_all()}
    finally:
        ops_mod.read_table = orig
    assert cov == ref_cov
    assert st == ref_streak


def test_compacted_shard_partitions_read_identically(ray_session,
                                                     tmp_path):
    """End-to-end: compact every checkpointed mentions shard partition,
    scatter fake leftover originals (the mid-compaction crash window),
    and require read_checkpointed_mentions to return exactly the
    monolithic extraction — proving the reader resolves shards through
    the manifest's data_files commit list, not a glob."""
    import shutil

    import pandas as pd

    from newsagency_classification_ray.pipelines import kg
    from newsagency_classification_ray.sources.pages import ensure_pages

    pages = ensure_pages("/root/testdata/sf0.001")
    out = str(tmp_path / "ckpt")
    kg.extract_mentions_checkpointed(pages, out)

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    full = canon(kg.extract_mentions(kg.read_pages(pages)).to_pandas())
    for pdir in sorted(glob.glob(os.path.join(out, "shard=*"))):
        # simulate parallel-writer debris: split the shard's single file
        # into two, republish the manifest (content identical)
        m = read_manifest(pdir)
        [src] = partition_data_files(pdir)
        t = pq.read_table(src)
        half = max(1, len(t) // 2)
        pq.write_table(t.slice(0, half), os.path.join(pdir, "a.parquet"))
        pq.write_table(t.slice(half), os.path.join(pdir, "b.parquet"))
        os.remove(src)
        write_manifest(pdir, m["partition_key"], m["row_count"],
                       m["content_hash"], m.get("input_fragments"))
        res = compact_partition(pdir)
        assert res["files_before"] == 2 and res["files_after"] == 1
        # crash window: put stale extras back on disk
        for i, live in enumerate(partition_data_files(pdir)):
            shutil.copy(live, os.path.join(pdir, f"leftover_{i}.parquet"))
        assert [os.path.basename(f)
                for f in partition_data_files(pdir)] == \
            ["compacted.parquet"]
    ckpt = canon(kg.read_checkpointed_mentions(out).to_pandas())
    pd.testing.assert_frame_equal(ckpt, full)
    # vacuum clears the leftovers, keeps every published partition whole
    removed = vacuum(out)
    assert removed and all("leftover_" in os.path.basename(f)
                           for fs in removed.values() for f in fs)
    ckpt2 = canon(kg.read_checkpointed_mentions(out).to_pandas())
    pd.testing.assert_frame_equal(ckpt2, full)
