"""End-to-end flagship pipeline tests + salting property test (§5 plan (b))."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data

from newsagency_classification_ray.functions.html import extract_text
from newsagency_classification_ray.pipelines import kg
from newsagency_classification_ray.sources.pages import ensure_pages, gen_pages_table


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pages") / "pages.parquet")
    pq.write_table(gen_pages_table(1500), path)
    return path


@pytest.fixture(scope="module")
def mentions(small_corpus):
    return kg.extract_mentions(kg.read_pages(small_corpus)).materialize()


def _frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _old_graph(mentions) -> dict[str, pd.DataFrame]:
    """The graph tables composed stage by stage from deduped mentions."""
    m = kg.dedup_mentions(mentions).materialize()
    trip = kg.triples(m)
    return {"mentions": _frame(m),
            "nodes": _frame(kg.build_nodes(kg.canonicalize(m), trip)),
            "edges": _frame(kg.build_edges(trip, kg.cooccurrence_edges(m)))}


def test_graph_tables_equal_stage_composition(small_corpus, tmp_path):
    """One host exchange + per-block kernels + two merges give the same
    mentions, nodes and edges as the stage-by-stage composition, duplicate
    pages included (their mention rows reach graph_tables undeduped)."""
    import pyarrow as pa

    pages = pq.read_table(small_corpus)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pa.concat_tables([pages, pages.slice(0, 200)]), path)
    raw = kg.extract_mentions(kg.read_pages(path), dedup=False).materialize()
    want = _old_graph(raw)
    assert raw.count() > len(want["mentions"])  # the fixture has duplicate pages
    g = kg.graph_tables(raw)
    for name in ("mentions", "nodes", "edges"):
        pd.testing.assert_frame_equal(_frame(g[name]), want[name])
    assert want["nodes"]["node_id"].is_unique


def test_byte_identity_invariant(small_corpus, mentions):
    """north-star invariant: text[l_art:r_art] == surface for every mention."""
    pages = pq.read_table(small_corpus).to_pandas()
    text_of = {}
    for r in pages.itertuples():
        text_of[r.url] = r.text if r.text is not None else extract_text(r.html)
    for r in mentions.to_pandas().itertuples():
        assert text_of[r.url][r.l_art:r.r_art] == r.surface


def test_dedup_and_gates(small_corpus, mentions):
    df = mentions.to_pandas()
    assert df["mention_id"].is_unique  # duplicate urls deduped
    assert set(df["lang"]) <= {"fr", "de"}  # language gate
    assert not df["url"].str.contains("/long-").any()  # truncation rows


def test_salted_canonicalize_equals_plain_groupby(mentions):
    """Property (§7.2 step 5): salted two-phase == unsalted single groupby."""
    got = kg.canonicalize(mentions, salt_buckets=7).to_pandas()
    df = mentions.to_pandas()
    want = (
        df.groupby(["surface_norm", "canonical", "qid"], as_index=False)
        .size().rename(columns={"size": "n_mentions"})
    )
    got = got.sort_values(["surface_norm", "canonical", "qid"]).reset_index(drop=True)
    want = want.sort_values(["surface_norm", "canonical", "qid"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()], want, check_dtype=False
    )


def test_cooccurrence_matches_pandas_reference(mentions):
    """A3 semantics vs an independent pandas implementation of
    network_analysis.ipynb cells 29-31 (Counter → combinations → explode)."""
    from itertools import combinations

    got = kg.cooccurrence_edges(mentions).to_pandas()
    df = mentions.to_pandas()
    df = df[df.qid != "NIL"]
    counts = df.groupby(["host", "year", "qid"], as_index=False).size()
    rows = []
    for (host, year), g in counts.groupby(["host", "year"]):
        g = g.sort_values("qid")
        for (qa, na), (qb, nb) in combinations(zip(g.qid, g["size"]), 2):
            rows.append((qa, qb, year, 1, na, nb))
    want = (
        pd.DataFrame(rows, columns=["src_qid", "dst_qid", "year", "weight",
                                    "freq_src", "freq_dst"])
        .groupby(["src_qid", "dst_qid", "year"], as_index=False)
        .sum()
    )
    got = got.sort_values(["src_qid", "dst_qid", "year"]).reset_index(drop=True)
    want = want.sort_values(["src_qid", "dst_qid", "year"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["src_qid", "dst_qid", "year", "weight", "freq_src", "freq_dst"]],
        want, check_dtype=False,
    )


def test_triples_weights_sum_to_linked_mentions(mentions):
    trip = kg.triples(mentions).to_pandas()
    linked = mentions.to_pandas().query("qid != 'NIL'")
    assert trip["n_mentions"].sum() == len(linked)
    assert (trip["predicate"] == "cites_agency").all()
    # per-url consistency
    per_url = linked.groupby("url").size()
    got_per_url = trip.groupby("url")["n_mentions"].sum()
    pd.testing.assert_series_equal(
        got_per_url.sort_index(), per_url.sort_index(),
        check_names=False, check_dtype=False,
    )


def test_zipf_head_skew_present(mentions):
    """The corpus must actually exercise the skew path: head agency ≥ 20% of
    linked mentions (Reuters/Havas head, reference README.md:88-90)."""
    df = mentions.to_pandas().query("qid != 'NIL'")
    share = df["canonical"].value_counts(normalize=True)
    assert share.iloc[0] >= 0.2
    assert share.index[0] in ("Reuters", "Havas")


def test_multi_file_input_equivalent(tmp_path):
    """Readers must not assume a single parquet file (real input = many
    crawl shards): the flagship over a 3-file split of the corpus equals
    the single-file run row for row."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from newsagency_classification_ray.pipelines import kg
    from newsagency_classification_ray.sources.pages import ensure_pages

    single = ensure_pages("/root/testdata/sf0.001")
    tbl = pq.read_table(single)
    shard_dir = os.path.join(tmp_path, "shards")
    os.makedirs(shard_dir)
    n = len(tbl)
    for i, (lo, hi) in enumerate([(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]):
        pq.write_table(tbl.slice(lo, hi - lo), os.path.join(shard_dir, f"shard-{i}.parquet"))

    a = kg.extract_mentions(kg.read_pages(single)).to_pandas()
    b = kg.extract_mentions(kg.read_pages(shard_dir)).to_pandas()
    a = a.sort_values("mention_id").reset_index(drop=True)
    b = b.sort_values("mention_id").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_empty_corpus_survives_every_stage(tmp_path):
    """0-row input must flow through the whole flagship without error
    (stable schemas on empty blocks are a recurring Ray Data trap)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from newsagency_classification_ray.pipelines import kg
    from newsagency_classification_ray.sources.pages import PAGES_SCHEMA

    p = os.path.join(tmp_path, "empty.parquet")
    pq.write_table(PAGES_SCHEMA.empty_table(), p)
    mentions = kg.extract_mentions(kg.read_pages(p)).materialize()
    assert mentions.count() == 0
    assert kg.triples(mentions).count() == 0
    assert kg.canonicalize(mentions).count() == 0
    assert kg.cooccurrence_edges(mentions).count() == 0
    trip = kg.triples(mentions)
    want = {"nodes": kg.build_nodes(kg.canonicalize(mentions), trip),
            "edges": kg.build_edges(trip, kg.cooccurrence_edges(mentions))}
    want["mentions"] = mentions
    g = kg.graph_tables(kg.extract_mentions(kg.read_pages(p), dedup=False))
    for name, ds in want.items():
        assert g[name].count() == 0
        assert g[name].schema() == ds.schema()
    from newsagency_classification_ray.pipelines.graph import materialize_graph

    s = materialize_graph(g["nodes"], g["edges"], g["mentions"],
                          os.path.join(tmp_path, "graph"), num_partitions=2)
    assert {k: (len(v["written"]), v["row_count"]) for k, v in s.items()} == {
        "nodes": (2, 0), "edges": (2, 0), "mentions": (2, 0)}


def test_small_blocks_keep_key_runs_whole(tmp_path):
    """The aggregates and the graph write rely on each sort-key run landing
    in one block. The mention sources merge their rows into one large
    batch, which Ray splits again under a small ``target_max_block_size``;
    at 64 KiB the written node, edge and mention tables, both from the
    stage composition and from ``graph_tables``' host blocks, must equal
    the default run's."""
    import os

    from ray.data import DataContext

    from newsagency_classification_ray.pipelines.graph import materialize_graph

    pdir = tmp_path / "pages"
    pdir.mkdir()
    pq.write_table(gen_pages_table(8000), str(pdir / "s0.parquet"))
    mdir = str(tmp_path / "mentions")
    kg.extract_mentions_checkpointed(str(pdir), mdir)

    def build(out: str) -> tuple[int, dict[str, pd.DataFrame]]:
        m = kg.read_checkpointed_mentions(mdir).materialize()
        trip = kg.triples(m)
        nodes = kg.build_nodes(kg.canonicalize(m), trip)
        edges = kg.build_edges(trip, kg.cooccurrence_edges(m))
        materialize_graph(nodes, edges, m, out, num_partitions=4)
        return m.num_blocks(), read(out)

    def build_graph_tables(out: str) -> dict[str, pd.DataFrame]:
        g = kg.graph_tables(kg.read_checkpointed_mentions(mdir, dedup=False))
        materialize_graph(g["nodes"], g["edges"], g["mentions"], out,
                          num_partitions=4)
        return read(out)

    def read(out: str) -> dict[str, pd.DataFrame]:
        tables = {}
        for name in ("nodes", "edges", "mentions"):
            df = pq.read_table(os.path.join(out, name)).to_pandas()
            df["part"] = df["part"].astype(int)
            tables[name] = df.sort_values(list(df.columns)).reset_index(drop=True)
        return tables

    _, want = build(str(tmp_path / "default"))
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024
    try:
        n_blocks, got = build(str(tmp_path / "small"))
        hosted = build_graph_tables(str(tmp_path / "small_hosted"))
    finally:
        ctx.target_max_block_size = old
    assert n_blocks > 1  # the small blocks really split the mention table
    _assert_written_in_key_order(str(tmp_path / "small_hosted"))
    for tables in (got, hosted):
        assert tables["nodes"]["node_id"].is_unique
        assert not tables["edges"].duplicated(["src", "dst", "predicate", "year"]).any()
        for name in want:
            pd.testing.assert_frame_equal(tables[name], want[name])

def _assert_written_in_key_order(out_root: str) -> None:
    """Each ``nodes/part=k`` read in file-name order is sorted by node_id,
    each ``edges/part=k`` by (src, dst, year): the writes keep the order of
    ``graph_tables``' merges without a sort of their own."""
    import glob
    import os

    from newsagency_classification_ray.state.manifest import partition_data_files

    for table, keys in (("nodes", ["node_id"]), ("edges", ["src", "dst", "year"])):
        for pdir in glob.glob(os.path.join(out_root, table, "part=*")):
            files = partition_data_files(pdir)
            assert files, pdir
            rows = pd.concat([pq.read_table(f).to_pandas() for f in files])[keys]
            assert list(rows.itertuples(index=False)) == sorted(
                rows.itertuples(index=False)), pdir


def test_manifests_equal_the_files_on_disk(tmp_path):
    """The writer counts and hashes the rows it writes instead of reading
    its files back. On a default ``run_pipeline`` and on the extraction
    checkpoints, a shard without mentions included, every manifest's
    ``row_count``/``content_hash`` equals a read of its ``data_files``,
    which name exactly the Parquet files of its directory. The tables
    carry null ``qid``/``freq_*`` columns, an int32 ``year`` and a
    ``timestamp[us]`` ``warc_ts``, whose hashes this pins."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.compute as pc

    from newsagency_classification_ray.cli import PipelineConfig, run_pipeline
    from newsagency_classification_ray.state.manifest import (
        hash_files, partition_data_files, read_manifest)

    pages = gen_pages_table(900)
    pdir = tmp_path / "pages"
    pdir.mkdir()
    for i in range(2):
        pq.write_table(pages.slice(i * 450, 450), str(pdir / f"s{i}.parquet"))
    # English pages only: the language gate leaves no mentions
    pq.write_table(pages.filter(pc.equal(pages["lang"], "en")), str(pdir / "s2.parquet"))

    kg_out, ckpt = tmp_path / "kg", tmp_path / "mentions"
    run_pipeline(PipelineConfig(input_path=str(pdir), output_root=str(kg_out)))
    kg.extract_mentions_checkpointed(str(pdir), str(ckpt))
    assert read_manifest(str(ckpt / "shard=s2"))["row_count"] == 0

    partitions = glob.glob(str(kg_out / "*" / "part=*")) + glob.glob(str(ckpt / "shard=*"))
    assert len(partitions) == 3 * PipelineConfig("", "").num_partitions + 3
    for p in partitions:
        m = read_manifest(p)
        assert (m["row_count"], m["content_hash"]) == hash_files(partition_data_files(p)), p
        assert m["data_files"] == sorted(f for f in os.listdir(p) if f.endswith(".parquet")), p

    edges = pq.read_table(str(kg_out / "edges"))
    mentions = pq.read_table(str(ckpt))
    assert edges.schema.field("year").type == pa.int32()
    assert edges["freq_src"].null_count > 0
    assert pq.read_table(str(kg_out / "nodes"))["qid"].null_count > 0
    assert mentions.schema.field("warc_ts").type == pa.timestamp("us")
    _assert_written_in_key_order(str(kg_out))

