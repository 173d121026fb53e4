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


def test_small_blocks_keep_key_runs_whole(tmp_path):
    """The aggregates and the graph write rely on each sort-key run landing
    in one block. The mention sources merge their rows into one large
    batch, which Ray splits again under a small ``target_max_block_size``;
    at 64 KiB the written node, edge and mention tables must equal the
    default run's."""
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
        tables = {}
        for name in ("nodes", "edges", "mentions"):
            df = pq.read_table(os.path.join(out, name)).to_pandas()
            df["part"] = df["part"].astype(int)
            tables[name] = df.sort_values(list(df.columns)).reset_index(drop=True)
        return m.num_blocks(), tables

    _, want = build(str(tmp_path / "default"))
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024
    try:
        n_blocks, got = build(str(tmp_path / "small"))
    finally:
        ctx.target_max_block_size = old
    assert n_blocks > 1  # the small blocks really split the mention table
    assert got["nodes"]["node_id"].is_unique
    assert not got["edges"].duplicated(["src", "dst", "predicate", "year"]).any()
    for name in want:
        pd.testing.assert_frame_equal(got[name], want[name])
