"""Input-shard-level extraction checkpointing (resume upstream of the
graph write)."""

from __future__ import annotations

import glob
import os
import shutil

import pandas as pd

from newsagency_classification_ray.pipelines import kg
from newsagency_classification_ray.sources.pages import ensure_pages

SF = "/root/testdata/sf0.001"
OUT = "/tmp/nacr_ckpt_mentions"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_checkpointed_extraction_resume_and_equality(ray_session):
    pages = ensure_pages(SF)
    shutil.rmtree(OUT, ignore_errors=True)

    s1 = kg.extract_mentions_checkpointed(pages, OUT)
    n_shards = len(glob.glob(os.path.join(pages, "*.parquet")))
    assert len(s1["written"]) == n_shards and not s1["skipped"]
    assert s1["row_count"] > 0

    # equality with the monolithic run (byte-level, all columns)
    ckpt = _canon(kg.read_checkpointed_mentions(OUT).to_pandas())
    full = _canon(kg.extract_mentions(kg.read_pages(pages)).to_pandas())
    pd.testing.assert_frame_equal(ckpt, full)

    # rerun: everything skipped, nothing rewritten
    s2 = kg.extract_mentions_checkpointed(pages, OUT)
    assert not s2["written"] and len(s2["skipped"]) == n_shards

    # knock out ONE shard's manifest → only that shard is redone,
    # and the re-extracted partition carries the identical content hash
    victim = sorted(glob.glob(os.path.join(OUT, "shard=*")))[3]
    from newsagency_classification_ray.state.manifest import read_manifest

    before = read_manifest(victim)
    os.remove(os.path.join(victim, "_manifest.json"))
    s3 = kg.extract_mentions_checkpointed(pages, OUT)
    assert s3["written"] == [os.path.basename(victim)]
    assert len(s3["skipped"]) == n_shards - 1
    after = read_manifest(victim)
    assert after is not None
    assert after["content_hash"] == before["content_hash"]
    assert after["row_count"] == before["row_count"]
    assert after["input_fragments"] == before["input_fragments"]

    # and the union is still equal after the partial redo
    ckpt2 = _canon(kg.read_checkpointed_mentions(OUT).to_pandas())
    pd.testing.assert_frame_equal(ckpt2, full)


def test_lost_shards_redo_in_one_write(tmp_path, monkeypatch):
    """Losing 3 of 5 shards re-extracts them in ONE execution (one
    ``write_datasink``). Every manifest, cold and redone, holds exactly
    its own shard's deduped mentions — a page copied into another shard
    is kept in both — and a shard whose pages yield no mentions still
    gets a 0-row manifest."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from newsagency_classification_ray.sources.pages import gen_pages_table
    from newsagency_classification_ray.state.manifest import (
        batch_content_hash, read_manifest)

    pages = gen_pages_table(900)
    pdir, out = tmp_path / "pages", str(tmp_path / "mentions")
    pdir.mkdir()
    for i in range(3):
        pq.write_table(pages.slice(i * 300, 300), str(pdir / f"s{i}.parquet"))
    # English pages only: the language gate leaves no mentions
    pq.write_table(pages.filter(pc.equal(pages["lang"], "en")), str(pdir / "s3.parquet"))
    # duplicates of s1's pages in another shard
    pq.write_table(pages.slice(300, 100), str(pdir / "s4.parquet"))

    want = {}
    for f in sorted(pdir.iterdir()):
        m = kg.extract_mentions(kg.read_pages(str(f)))
        t = pa.concat_tables(ray.get(m.to_arrow_refs()))
        want[f"shard={f.stem}"] = (len(t), batch_content_hash(t) if len(t) else 0)
    assert want["shard=s3"][0] == 0 and want["shard=s4"][0] > 0

    writes = []
    real_write = ray.data.Dataset.write_datasink

    def counting_write(self, *args, **kwargs):
        writes.append(args)
        return real_write(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "write_datasink", counting_write)

    def manifests() -> dict:
        return {k: (m["row_count"], m["content_hash"])
                for k in want for m in [read_manifest(os.path.join(out, k))]}

    cold = kg.extract_mentions_checkpointed(str(pdir), out)
    assert cold["written"] == sorted(want) and len(writes) == 1
    assert manifests() == want

    lost = ["shard=s1", "shard=s3", "shard=s4"]
    for k in lost:
        shutil.rmtree(os.path.join(out, k))
    writes.clear()
    s = kg.extract_mentions_checkpointed(str(pdir), out)
    assert s["written"] == lost and len(writes) == 1
    assert manifests() == want
