"""End-to-end crash-resumable flagship (input + output checkpoints)."""

from __future__ import annotations

import glob
import math
import os
import shutil

import pytest

from newsagency_classification_ray.pipelines import kg
from newsagency_classification_ray.sources.pages import ensure_pages

SF = "/root/testdata/sf0.001"
WD = "/tmp/nacr_flagship_resume"


@pytest.fixture(scope="module")
def resumed(ray_session):
    """Build, rerun, then resume after losing one extraction shard and one
    graph partition; returns the pages dir and the three summaries."""
    pages = ensure_pages(SF)
    shutil.rmtree(WD, ignore_errors=True)
    s1 = kg.flagship_resumable(pages, WD, num_partitions=4)
    s2 = kg.flagship_resumable(pages, WD, num_partitions=4)
    victim_shard = sorted(glob.glob(os.path.join(WD, "mentions",
                                                 "shard=*")))[0]
    os.remove(os.path.join(victim_shard, "_manifest.json"))
    victim_part = sorted(glob.glob(os.path.join(WD, "graph", "*", "part=*")))[0]
    os.remove(os.path.join(victim_part, "_manifest.json"))
    s3 = kg.flagship_resumable(pages, WD, num_partitions=4)
    return {"pages": pages, "s1": s1, "s2": s2, "s3": s3,
            "victim_shard": victim_shard, "victim_part": victim_part}


def test_flagship_resumable_end_to_end(resumed):
    pages, s1, s2, s3 = (resumed[k] for k in ("pages", "s1", "s2", "s3"))
    n_shards = len(glob.glob(os.path.join(pages, "*.parquet")))
    assert len(s1["extract"]["written"]) == n_shards
    assert s1["extract"]["row_count"] == 371  # sf0.001 mention count
    assert any(v["written"] for v in s1["graph"].values())

    # a full rerun is a complete no-op on BOTH checkpoint layers
    assert not s2["extract"]["written"]
    assert len(s2["extract"]["skipped"]) == n_shards
    assert all(not v["written"] for v in s2["graph"].values())

    # a crash that lost one extraction shard AND one graph partition:
    # resume redoes exactly those
    assert s3["extract"]["written"] == [os.path.basename(resumed["victim_shard"])]
    rewritten = [k for v in s3["graph"].values() for k in v["written"]]
    assert rewritten == [os.path.basename(resumed["victim_part"])]

    # the resumed output still matches the monolithic flagship
    m = kg.read_checkpointed_mentions(os.path.join(WD, "mentions"))
    assert m.count() == 371


def test_resumed_block_count_follows_rows(resumed):
    """The checkpoint read is one block per MENTION_ROWS_PER_BLOCK rows, not
    one per file split, and each graph partition of the resumed output is
    one Parquet file (a block count inherited from the read multiplies the
    files of every partitioned write)."""
    m = kg.read_checkpointed_mentions(os.path.join(WD, "mentions")).materialize()
    assert m.num_blocks() == math.ceil(m.count() / kg.MENTION_ROWS_PER_BLOCK)
    for pdir in glob.glob(os.path.join(WD, "graph", "*", "part=*")):
        assert len(glob.glob(os.path.join(pdir, "*.parquet"))) <= 1, pdir
