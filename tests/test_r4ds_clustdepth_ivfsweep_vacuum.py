"""Clustering depth, IVF nprobe sweep, manifest vacuum."""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

import newsagency_classification_ray.queries as Q
from newsagency_classification_ray.state.manifest import (
    find_orphans, vacuum, write_manifest)

SF = "/root/testdata/sf0.001"


def test_clustering_depth_matches_bruteforce():
    t = Q.QUERIES["lineitem_clustering_depth"](SF).to_pandas() \
        .set_index("block")
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_shipdate"]).to_pandas()
    li["block"] = li.l_orderkey.astype(np.int64) // Q._CLUST_BLOCK
    li["day"] = (li.l_shipdate.astype("datetime64[s]")
                 - pd.Timestamp("1970-01-01")).dt.days
    g = li.groupby("block").day.agg(["min", "max", "count"])
    assert set(t.index) == set(g.index)
    for b, row in g.iterrows():
        tr = t.loc[b]
        assert (int(tr.min_day), int(tr.max_day), int(tr.n_rows)) == \
            (int(row["min"]), int(row["max"]), int(row["count"]))
        depth = int(sum((g["min"] <= row["max"]) & (g["max"] >= row["min"])))
        assert int(tr.depth) == depth
    # every block overlaps itself
    assert (t.depth >= 1).all()


def test_ivf_sweep_recall_is_monotone_and_saturates():
    t = Q.QUERIES["embeddings_ivf_sweep"](SF).to_pandas() \
        .sort_values("n_probe")
    assert list(t.n_probe) == Q._IVF_SWEEP_PROBES
    # recall is non-decreasing in n_probe (more lists scanned)
    r = t.recall_nano.to_numpy()
    assert (np.diff(r) >= 0).all()
    assert (t.n_hits <= t.n_truth).all()
    assert r[-1] >= r[0]
    assert r[-1] > 0  # at 8/32 lists, something must be found
    assert (t.n_truth > 0).all()


def test_vacuum_removes_only_manifest_less_partials(tmp_path):
    root = str(tmp_path / "out")
    good = os.path.join(root, "part=0")
    bad = os.path.join(root, "part=1")
    empty = os.path.join(root, "part=2")
    os.makedirs(good)
    os.makedirs(bad)
    os.makedirs(empty)
    with open(os.path.join(good, "data.parquet"), "w") as f:
        f.write("x")
    write_manifest(good, "part=0", 1, 42)
    with open(os.path.join(bad, "data.parquet"), "w") as f:
        f.write("y")  # crashed write: data, no manifest

    orphans = find_orphans(root)
    assert list(orphans) == [bad]
    assert orphans[bad] == [os.path.join(bad, "data.parquet")]

    removed = vacuum(root)
    assert list(removed) == [bad]
    assert not os.path.exists(bad)
    # published partition and its data are untouched
    assert os.path.exists(os.path.join(good, "data.parquet"))
    assert os.path.exists(os.path.join(good, "_manifest.json"))
    # idempotent
    assert vacuum(root) == {}


def test_vacuum_spares_young_temp_files(tmp_path):
    """A ``*.tmp`` file younger than the grace window may belong to a
    compaction or a manifest publish still in flight: vacuum leaves it
    (and the whole unpublished directory holding one), and deletes an
    aged one."""
    from newsagency_classification_ray.state.manifest import TMP_GRACE_S

    root = str(tmp_path / "out")
    aged = time.time() - TMP_GRACE_S - 60
    tmp = {}
    for name, publish in (("part=0", True), ("part=1", True), ("part=2", False)):
        pdir = os.path.join(root, name)
        os.makedirs(pdir)
        with open(os.path.join(pdir, "data.parquet"), "w") as f:
            f.write("x")
        if publish:
            write_manifest(pdir, name, 1, 42)
        tmp[name] = os.path.join(pdir, "compacted.parquet.tmp")
        with open(tmp[name], "w") as f:
            f.write("partial")
    os.utime(tmp["part=1"], (aged, aged))

    assert find_orphans(root) == {os.path.join(root, "part=1"): [tmp["part=1"]]}
    vacuum(root)
    assert os.path.exists(tmp["part=0"]) and os.path.exists(tmp["part=2"])
    assert not os.path.exists(tmp["part=1"])
    for name in ("part=0", "part=1", "part=2"):
        assert os.path.exists(os.path.join(root, name, "data.parquet"))
    os.utime(tmp["part=2"], (aged, aged))  # the unpublished write never finished
    vacuum(root)
    assert not os.path.exists(os.path.join(root, "part=2"))
