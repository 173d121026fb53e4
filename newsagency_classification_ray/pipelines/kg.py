"""Flagship KG-construction pipeline (SURVEY.md §7.1 dataflow).

    read_parquet(pages) → filter(lang, nonempty)            # M1/M2, stateless
      → map_batches(extract_text)                           # byte-identical text
      → map_batches(_tag_batch,  concurrency=cap)           # T1 on warm task workers
      → map_batches(_link_batch, concurrency=cap)           # T5 on warm task workers
      → mentions (duplicate pages still duplicated)
      → graph_tables: ONE sort("host"), materialized; per whole-host block:
            mention_id dedup                                # D1 (README.md:86 dup bug)
            cites edges + article nodes, complete per block
            agency partials (canonical, qid, n)             # A2
            co-occurrence pairs per (host, year)            # A3
         → one keyed merge for nodes, one for edges
      → sorted, partitioned graph materialize with manifests  # F6

Scale notes (the 100 TB story):
* Every stage before the mentions table is a streaming ``map_batches`` over
  Arrow blocks — no driver materialization; mention rows are ~10³× smaller
  than page rows, so all shuffles below happen on the *small* side of the
  funnel.
* Tagger and linker are plain tasks, not actor pools: each worker process
  builds one stage object per (stage, model) on its first batch
  (``stages.warm.warm_stage``) and keeps it for every later batch and job.
  Nothing is reserved for the lifetime of an execution, so the reads, sorts
  and writes around the stages always get a CPU slot (no deadlock at one
  CPU), and the pre-started workers stay alive and warm across jobs.
* Nothing page-sized ever enters an exchange: duplicate pages are deduped on
  the mention side (identical pages yield byte-identical mention rows), so
  the pipeline has NO full-input shuffle at all.
* Mention-scale datasets have one block per :data:`MENTION_ROWS_PER_BLOCK`
  rows, set by the ``batch_size`` of the map at each source (derived
  columns, checkpoint read, graph partition key). A range ``sort`` keeps its
  input's block count, so the source fixes the width of every exchange
  after it and the number of files each partitioned write leaves.
* One shared partitioning serves every graph table (:func:`graph_tables`):
  ``host`` is a function of ``url`` and ``mention_id`` embeds the url, so
  after the host sort each block holds whole urls, whole (host, year)
  groups and whole duplicate runs. The per-block kernels emit complete
  cites edges and article nodes and at most one partial row per agency or
  co-occurring pair per block, so only two merges follow — the Zipf head
  (Reuters/Havas, reference README.md:88-90) never reaches an exchange as
  more than one row per block, and no salt is needed. A hot host lands in
  one block, as a hot (host, year) group did before.
* Every keyed aggregate is :func:`keyed_aggregate`: a range-partitioning
  ``sort`` on the key, then ONE Arrow ``group_by`` kernel per block — no
  per-group Python (Ray's ``groupby().aggregate()`` reduces each group in a
  Python loop).
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data import Dataset

from ..functions.ids import host_of_urls
from ..functions.textproc import normalize_surface
from ..stages.extract import extract_text_batch, filter_pages
from ..stages.linker import LinkerStage
from ..stages.tagger import TaggerStage
from ..stages.warm import warm_stage

DEFAULT_SALT_BUCKETS = 32
# rows per block at each mention-scale source (~18 MB of mention rows)
MENTION_ROWS_PER_BLOCK = 65_536
# default caps on the concurrent tasks of the tagger and the linker
TAGGER_CONCURRENCY = 8
LINKER_CONCURRENCY = 4


def read_pages(path: str, columns: list[str] | None = None, **kwargs) -> Dataset:
    """Read the pages table, pruning to the pipeline's columns at the read."""
    return ray.data.read_parquet(
        path, columns=columns or ["url", "warc_ts", "html", "text", "lang"], **kwargs
    )


def _drop_dup_runs(keys: str | list[str]):
    """Vectorized keep-first-of-run over a block sorted by ``keys``."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def fn(t: pa.Table) -> pa.Table:
        if len(t) <= 1:
            return t
        neq = None
        for k in keys:
            col = t[k].combine_chunks()
            ne = pc.fill_null(pc.not_equal(col.slice(1), col.slice(0, len(t) - 1)), True)
            neq = ne if neq is None else pc.or_(neq, ne)
        return t.filter(pa.chunked_array([pa.array([True]), neq]))
    return fn


def dedup_by_url(pages: Dataset) -> Dataset:
    """Exact dedup: range-partition on ``url`` + vectorized keep-first (D1).

    ``sort`` is Ray's one keyed exchange whose partitioner is value-
    deterministic (every block maps a key to the same output partition via the
    shared boundaries), so all copies of a url land in one block and a
    vectorized run-compare drops the duplicates — no per-group Python.
    Duplicate rows in this corpus are exact copies (generator invariant,
    mirroring the reference's 7 duplicated FR test articles README.md:86), so
    "first" is value-deterministic regardless of shuffle order.
    ``batch_size=None`` ⇒ one batch per block, so runs never straddle a batch.
    """
    return pages.sort("url").map_batches(
        _drop_dup_runs("url"), batch_format="pyarrow", batch_size=None
    )


def dedup_mentions(mentions: Dataset) -> Dataset:
    """Exact dedup of mention rows by ``mention_id`` (same sort+run pattern).

    The scale-correct place to defuse duplicate pages: mention rows are ~10³×
    smaller than page rows, and exact-duplicate pages (same url ⇒ same text)
    produce byte-identical mention rows, so deduping here equals page-level
    ``dedup_by_url`` on the result while shuffling only the small side. The
    price is tagging each duplicate page once more — ε compute vs moving the
    full page payload through an exchange.
    """
    return mentions.sort("mention_id").map_batches(
        _drop_dup_runs("mention_id"), batch_format="pyarrow", batch_size=None
    )


def extract_mentions(
    pages: Dataset,
    *,
    tagger_concurrency: int = TAGGER_CONCURRENCY,
    linker_concurrency: int = LINKER_CONCURRENCY,
    batch_size: int = 256,
    dedup: bool = True,
    model: str = "alias",
) -> Dataset:
    """pages → mentions (tag + link) on warm task workers.

    ``tagger_concurrency`` / ``linker_concurrency`` cap the number of
    concurrent tasks of each stage.

    ``dedup=True`` drops the mention rows of duplicate pages on the *small*
    side (identical mention rows, see :func:`dedup_mentions`); ``False``
    keeps them, for callers that dedup later (:func:`graph_tables` does it
    inside its host exchange).

    Mention output is ~10³× smaller than the page input, so the blocks
    inherited from the read are tiny. The derived-column map takes batches
    of :data:`MENTION_ROWS_PER_BLOCK` rows, which merges them into one block
    per that many mention rows (no shuffle), so the exchanges downstream are
    as wide as the mention rows need, not as the input's block count.
    """
    ds = pages.map_batches(filter_pages, batch_format="pyarrow")
    ds = ds.map_batches(extract_text_batch, batch_format="pyarrow")
    ds = ds.map_batches(
        _tag_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=tagger_concurrency,
        num_cpus=1,
        fn_kwargs={"model": model},
    )
    ds = ds.map_batches(
        _link_batch,
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=linker_concurrency,
        num_cpus=1,
    )
    ds = ds.map_batches(_derive_mention_meta, batch_format="pyarrow",
                        batch_size=MENTION_ROWS_PER_BLOCK)
    return dedup_mentions(ds) if dedup else ds


def _tag_batch(batch: pa.Table, model: str) -> pa.Table:
    """Tag a page batch. The tagger emits mention columns only, so a
    ``shard`` column (checkpointed extraction) is carried over here: each
    shard's pages are tagged apart and their mentions labelled with it."""
    tagger = warm_stage(TaggerStage, model=model)
    if "shard" not in batch.column_names:
        return tagger(batch)
    parts = []
    for s in pc.unique(batch["shard"]).to_pylist() or [None]:  # [None]: empty batch
        m = tagger(batch.filter(pc.equal(batch["shard"], pa.scalar(s, pa.string()))))
        parts.append(m.append_column("shard", pa.array([s] * len(m), pa.string())))
    return pa.concat_tables(parts)


def _link_batch(batch: pa.Table) -> pa.Table:
    return warm_stage(LinkerStage)(batch)


def keyed_aggregate(ds: Dataset, keys: str | list[str],
                    aggs: dict[str, tuple[str, str]], *,
                    partition_by: str | list[str] | None = None) -> Dataset:
    """``groupby(keys).aggregate(...)`` as one Arrow kernel per block.

    ``aggs`` maps each output column to ``(input column, pyarrow hash
    aggregate)``, e.g. ``{"n_mentions": ("n", "sum"), "year": ("year",
    "max")}``; the output is the key columns then ``aggs`` in order. The
    range-partitioning ``sort`` puts all rows of a key in one block (the
    guarantee :func:`dedup_mentions` relies on), so one
    ``pa.Table.group_by`` per block (``batch_size=None``) is the complete
    aggregate — where Ray's ``groupby().aggregate()`` reduces each group in
    a Python loop. ``group_by`` does not keep its input's order, even
    single-threaded, so each output block is sorted by ``keys`` again
    in-process: the blocks, in order, hold the keys in order.

    ``partition_by`` sorts on a prefix of ``keys`` instead, e.g. a key that
    determines the others: all rows of a full key still share one block, and
    the range partitioner never compares a nullable key column.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def fn(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(list(aggs.values()))
        # select by NAME (pyarrow key/aggregate order is version-dependent)
        return pa.table({**{k: g[k] for k in keys},
                         **{out: g[f"{col}_{f}"] for out, (col, f) in aggs.items()}}
                        ).sort_by([(k, "ascending") for k in keys])

    return ds.sort(partition_by or keys).map_batches(fn, batch_format="pyarrow",
                                                     batch_size=None)


def _derive_mention_meta(batch: pa.Table) -> pa.Table:
    """Vectorized derived columns: host, year, surface_norm (M14 analogue)."""
    host = host_of_urls(pc.cast(batch["url"], pa.string()))
    year = pc.cast(pc.year(batch["warc_ts"]), pa.int32())
    uniq = pc.unique(batch["surface"]).to_pylist()
    norm_map = {s: normalize_surface(s) for s in uniq}
    norm = pa.array([norm_map[s] for s in batch["surface"].to_pylist()], type=pa.string())
    return (
        batch.append_column("host", host)
        .append_column("year", year)
        .append_column("surface_norm", norm)
    )


def triples(mentions: Dataset) -> Dataset:
    """(url, 'cites_agency', qid) triples with per-pair mention weight.

    Linked mentions only (qid != NIL; articleauthor/unk/Europapress excluded
    per cli_tagger.py:202-209 + import_data.ipynb M15). Pre-aggregated inside
    map_batches before the (url, qid) aggregate — the combiner pattern.
    """
    linked = mentions.map_batches(
        lambda t: t.filter(pc.not_equal(t["qid"], "NIL")).select(
            ["url", "host", "year", "qid"]
        ),
        batch_format="pyarrow",
    )
    partial = linked.map_batches(_partial_count_batch(["url", "host", "year", "qid"]),
                                 batch_format="pyarrow")
    out = keyed_aggregate(partial, ["url", "qid"],
                          {"n_mentions": ("n", "sum"), "year": ("year", "max")})
    return out.map_batches(
        lambda t: t.append_column("predicate",
                                  pa.array(["cites_agency"] * len(t), type=pa.string())),
        batch_format="pyarrow",
    )


def _partial_count_batch(keys: list[str]):
    def fn(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({**{k: t[k] for k in keys},
                             "n": pa.array([], type=pa.int64())})
        g = t.select(keys).group_by(keys).aggregate([([], "count_all")])
        # select by NAME (pyarrow key/aggregate order is version-dependent)
        return pa.table({**{k: g[k] for k in keys}, "n": g["count_all"]})
    return fn


def add_salt(ds: Dataset, buckets: int = DEFAULT_SALT_BUCKETS) -> Dataset:
    """Append a round-robin salt column — spreads a hot key over ``buckets``
    shuffle partitions (north_rule: explicit salting of the head-entity skew)."""
    def fn(t: pa.Table) -> pa.Table:
        salt = pa.array(np.arange(len(t), dtype=np.int32) % buckets)
        return t.append_column("salt", salt)
    return ds.map_batches(fn, batch_format="pyarrow")


def canonicalize(mentions: Dataset, salt_buckets: int = DEFAULT_SALT_BUCKETS) -> Dataset:
    """A2: salted two-phase keyed aggregate on the normalized surface form.

    Phase 0 (combiner): per-batch partial counts of
    (surface_norm, canonical, qid) — collapses the Zipf head inside each block.
    Phase 1: aggregate on key + salt (partial merge).  Phase 2: aggregate on
    key (final merge).  Output: canonical agency rollup (surface forms → qid) with
    mention counts.  Property-tested equal to the unsalted single groupby.
    """
    keys = ["surface_norm", "canonical", "qid"]
    partial = mentions.map_batches(_partial_count_batch(keys), batch_format="pyarrow")
    salted = add_salt(partial, salt_buckets)
    merged = keyed_aggregate(salted, keys + ["salt"], {"n": ("n", "sum")})
    desalted = merged.map_batches(lambda t: t.drop_columns(["salt"]), batch_format="pyarrow")
    return keyed_aggregate(desalted, keys, {"n_mentions": ("n", "sum")})


def _emit_pairs_sorted_runs(t: pa.Table) -> pa.Table:
    """Vectorized unordered-pair emitter over a block whose rows belong to
    whole (host, year) groups: one LOCAL Arrow sort puts each group's qids
    in canonical order, a run-boundary compare (``slice``'d ``not_equal``,
    no per-group Python call) finds the groups, and per ≥2-row run a
    ``triu_indices`` gather emits the pairs — the same kernel shape that
    took the supplier-pair rework from 52 s to 13 s and
    ``dedup._pairs_from_sorted_buckets`` uses for LSH buckets. String
    columns are gathered with ONE ``pc.take`` over concatenated indices
    (no ``to_pylist``). At web scale (10⁶–10⁸ host×year groups) this
    replaces millions of per-group ``map_groups`` Python invocations with
    O(runs) numpy work inside O(blocks) batch calls.

    NB: group fns receive AND return Arrow — pandas-format blocks make
    every downstream exchange fall off the fast sort path (~17× slower,
    measured at sf0.1).
    """
    empty = pa.table({
        "src_qid": pa.array([], type=pa.string()),
        "dst_qid": pa.array([], type=pa.string()),
        "year": pa.array([], type=pa.int32()),
        "weight": pa.array([], type=pa.int64()),
        "freq_src": pa.array([], type=pa.int64()),
        "freq_dst": pa.array([], type=pa.int64()),
    })
    n = len(t)
    if n < 2:
        return empty
    order = pc.sort_indices(t, sort_keys=[("host", "ascending"),
                                          ("year", "ascending"),
                                          ("qid", "ascending")])
    t = t.take(order).combine_chunks()
    host, year = t["host"], t["year"]
    diff = pc.or_(
        pc.not_equal(host.slice(1), host.slice(0, n - 1)),
        pc.not_equal(year.slice(1), year.slice(0, n - 1)),
    ).to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.concatenate(([True], diff)))
    ends = np.append(starts[1:], n)
    ia_parts, ib_parts = [], []
    for s, e in zip(starts, ends):
        length = e - s
        if length < 2:
            continue
        ii, jj = np.triu_indices(length, k=1)
        ia_parts.append(ii + s)
        ib_parts.append(jj + s)
    if not ia_parts:
        return empty
    ia = np.concatenate(ia_parts)
    ib = np.concatenate(ib_parts)
    ns = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    yr = pc.cast(year, pa.int64()).to_numpy(zero_copy_only=False)
    return pa.table({
        "src_qid": pc.take(t["qid"], pa.array(ia)),
        "dst_qid": pc.take(t["qid"], pa.array(ib)),
        "year": pa.array(yr[ia].astype(np.int32)),
        "weight": pa.array(np.ones(len(ia), dtype=np.int64)),
        "freq_src": pa.array(ns[ia]),
        "freq_dst": pa.array(ns[ib]),
    })


def cooccurrence_pair_contribs(counts: Dataset) -> Dataset:
    """Per-(host, year) unordered pair contributions (weight=1 rows, NOT
    final-aggregated) from a (host, year, qid, n) count table. The range
    sort keys on EXACTLY the group key (host, year) so rows with equal
    keys land in one output block (Ray's range partitioner assigns by
    searchsorted on the full sort key — same contiguity guarantee the LSH
    band path relies on); :func:`_emit_pairs_sorted_runs` then emits each
    group's pairs with no per-group Python call. Property-tested equal to
    the per-group ``map_groups`` formulation."""
    return counts.sort(["host", "year"]).map_batches(
        _emit_pairs_sorted_runs, batch_format="pyarrow", batch_size=None)


def cooccurrence_edges(mentions: Dataset) -> Dataset:
    """A3: (agency, co_occurs_with, agency) edges per (host, year) group.

    Reference semantics (network_analysis.ipynb cells 29-31): per
    (newspaper, year) build a Counter of agencies, emit every unordered pair
    with the endpoint frequencies; edge weight = number of groups in which the
    pair co-occurs. Keys are canonically ordered src_qid < dst_qid so the
    undirected edge dedupes exactly (FIXTURES.md F6).
    Pre-aggregated to (host, year, qid, n) partials before the group shuffle;
    pair emission is the sorted run-boundary kernel (no per-group Python).
    """
    linked = mentions.map_batches(
        lambda t: t.filter(pc.not_equal(t["qid"], "NIL")).select(["host", "year", "qid"]),
        batch_format="pyarrow",
    )
    partial = linked.map_batches(_partial_count_batch(["host", "year", "qid"]),
                                 batch_format="pyarrow")
    counts = keyed_aggregate(partial, ["host", "year", "qid"], {"n": ("n", "sum")})

    pairs = cooccurrence_pair_contribs(counts)
    out = keyed_aggregate(pairs, ["src_qid", "dst_qid", "year"], {
        "weight": ("weight", "sum"),
        "freq_src": ("freq_src", "sum"),
        "freq_dst": ("freq_dst", "sum"),
    })
    return out.map_batches(
        lambda t: t.append_column(
            "predicate", pa.array(["co_occurs_with"] * len(t), type=pa.string())
        ),
        batch_format="pyarrow",
    )


def build_nodes(canonical_rollup: Dataset, triples_ds: Dataset) -> Dataset:
    """F6 nodes table: agency nodes (from canonicalization) ∪ article nodes.

    node_id: agencies → qid (or ``agency:{name}`` when unlinked/NIL, e.g.
    Europapress); articles → url. kind ∈ {agency, article}.
    """
    agency_partial = canonical_rollup.map_batches(
        lambda t: t.select(["canonical", "qid", "n_mentions"]).filter(
            pc.not_equal(t["canonical"], "")
        ),
        batch_format="pyarrow",
    )
    agencies = keyed_aggregate(agency_partial, ["canonical", "qid"],
                               {"n_mentions": ("n_mentions", "sum")})

    def agency_nodes(t: pa.Table) -> pa.Table:
        qid = t["qid"].to_pylist()
        canon = t["canonical"].to_pylist()
        node_id = [q if q != "NIL" else f"agency:{c}" for q, c in zip(qid, canon)]
        return pa.table({
            "node_id": pa.array(node_id, type=pa.string()),
            "kind": pa.array(["agency"] * len(t), type=pa.string()),
            "qid": pa.array(qid, type=pa.string()),
            "label": pa.array(canon, type=pa.string()),
            "n_mentions": pc.cast(t["n_mentions"], pa.int64()),
        })

    def article_nodes(t: pa.Table) -> pa.Table:
        return pa.table({
            "node_id": pc.cast(t["url"], pa.string()),
            "kind": pa.array(["article"] * len(t), type=pa.string()),
            "qid": pa.array([None] * len(t), type=pa.string()),
            "label": pc.cast(t["url"], pa.string()),
            "n_mentions": pc.cast(t["n_mentions"], pa.int64()),
        })

    art_partial = triples_ds.map_batches(
        lambda t: t.select(["url", "n_mentions"]), batch_format="pyarrow"
    )
    articles = keyed_aggregate(art_partial, "url", {"n_mentions": ("n_mentions", "sum")})
    return agencies.map_batches(agency_nodes, batch_format="pyarrow").union(
        articles.map_batches(article_nodes, batch_format="pyarrow")
    )


def build_edges(triples_ds: Dataset, cooccur_ds: Dataset) -> Dataset:
    """Unified F6 edges table: cites_agency (url→qid) ∪ co_occurs_with."""
    def cites(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.cast(t["url"], pa.string()),
            "dst": pc.cast(t["qid"], pa.string()),
            "predicate": pa.array(["cites_agency"] * len(t), type=pa.string()),
            "year": pc.cast(t["year"], pa.int32()),
            "weight": pc.cast(t["n_mentions"], pa.int64()),
            "freq_src": pa.array([None] * len(t), type=pa.int64()),
            "freq_dst": pa.array([None] * len(t), type=pa.int64()),
        })

    def cooc(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.cast(t["src_qid"], pa.string()),
            "dst": pc.cast(t["dst_qid"], pa.string()),
            "predicate": pc.cast(t["predicate"], pa.string()),
            "year": pc.cast(t["year"], pa.int32()),
            "weight": pc.cast(t["weight"], pa.int64()),
            "freq_src": pc.cast(t["freq_src"], pa.int64()),
            "freq_dst": pc.cast(t["freq_dst"], pa.int64()),
        })

    return triples_ds.map_batches(cites, batch_format="pyarrow").union(
        cooccur_ds.map_batches(cooc, batch_format="pyarrow")
    )


def graph_tables(mentions: Dataset) -> dict[str, Dataset]:
    """Mentions (duplicates allowed) → the ``mentions``, ``nodes`` and
    ``edges`` tables of the graph, from ONE shared exchange.

    ``sort("host")`` is materialized once. ``host`` is a function of
    ``url`` and ``mention_id`` embeds the url, so each block holds whole
    urls, whole (host, year) groups and every copy of a duplicate mention.
    The kernels below read those blocks as they are (``batch_size=None``;
    a map's own output may be split again by block size, so no kernel
    reads another kernel's output):

    * :func:`_dedup_block` — the mention_id dedup, the ``mentions`` table;
    * :func:`_node_partials` — complete article nodes, per-block agency
      partials per (canonical, qid);
    * :func:`_edge_partials` — complete cites edges, per-block
      co-occurrence pair contributions per (host, year).

    One keyed merge per table then sums the partials. The result equals
    ``dedup_mentions`` + ``build_nodes(canonicalize, triples)`` +
    ``build_edges(triples, cooccurrence_edges)`` row for row, with 3
    exchanges in place of 9, and the writes add none (the merges' blocks
    are in key order). The three tables are lazy over the materialized
    host blocks; each is computed where it is consumed.
    """
    hosted = mentions.sort("host").materialize()

    def per_block(fn) -> Dataset:
        return hosted.map_batches(fn, batch_format="pyarrow", batch_size=None)

    nodes = keyed_aggregate(per_block(_node_partials),
                            ["node_id", "kind", "qid", "label"],
                            {"n_mentions": ("n_mentions", "sum")},
                            partition_by="node_id")
    edges = keyed_aggregate(per_block(_edge_partials), ["src", "dst", "predicate", "year"],
                            {c: (c, "sum") for c in ("weight", "freq_src", "freq_dst")})
    return {"mentions": per_block(_dedup_block), "nodes": nodes, "edges": edges}


def _dedup_block(t: pa.Table) -> pa.Table:
    """Keep the first of each ``mention_id`` run of a whole-host block."""
    if len(t) > 1:
        t = t.take(pc.sort_indices(t, sort_keys=[("mention_id", "ascending")]))
    return _drop_dup_runs("mention_id")(t)


def _linked(t: pa.Table) -> pa.Table:
    return t.filter(pc.not_equal(t["qid"], "NIL"))


def _count(t: pa.Table, keys: list[str], extra=()) -> pa.Table:
    """``count_all`` per ``keys`` as ``n`` (plus ``extra`` aggregates by
    name), selected by NAME (pyarrow's output order is version-dependent)."""
    g = t.select(keys + [c for c, _ in extra]).group_by(keys, use_threads=False) \
        .aggregate([([], "count_all"), *extra])
    return pa.table({**{k: g[k] for k in keys}, "n": g["count_all"],
                     **{f"{c}_{f}": g[f"{c}_{f}"] for c, f in extra}})


def _const(value: str, n: int) -> pa.Array:
    return pa.array([value] * n, type=pa.string())


def _node_partials(t: pa.Table) -> pa.Table:
    """Article nodes (complete: the block holds the whole url) and agency
    partials per (canonical, qid) in the :func:`build_nodes` schema."""
    t = _dedup_block(t)
    named = t.filter(pc.not_equal(t["canonical"], ""))
    agency = _count(named, ["canonical", "qid"])
    article = _count(_linked(t), ["url"])
    return pa.concat_tables([
        pa.table({
            "node_id": pc.if_else(
                pc.equal(agency["qid"], "NIL"),
                pc.binary_join_element_wise("agency:", agency["canonical"], ""),
                agency["qid"]),
            "kind": _const("agency", len(agency)),
            "qid": agency["qid"],
            "label": agency["canonical"],
            "n_mentions": agency["n"],
        }),
        pa.table({
            "node_id": article["url"],
            "kind": _const("article", len(article)),
            "qid": pa.nulls(len(article), pa.string()),
            "label": article["url"],
            "n_mentions": article["n"],
        }),
    ])


def _edge_partials(t: pa.Table) -> pa.Table:
    """Cites edges (complete: count and max year per (url, qid)) and the
    co-occurrence pair contributions of each whole (host, year) group, in
    the :func:`build_edges` schema."""
    linked = _linked(_dedup_block(t))
    cites = _count(linked, ["url", "qid"], [("year", "max")])
    pairs = _emit_pairs_sorted_runs(_count(linked, ["host", "year", "qid"]))
    return pa.concat_tables([
        pa.table({
            "src": cites["url"],
            "dst": cites["qid"],
            "predicate": _const("cites_agency", len(cites)),
            "year": cites["year_max"],
            "weight": cites["n"],
            "freq_src": pa.nulls(len(cites), pa.int64()),
            "freq_dst": pa.nulls(len(cites), pa.int64()),
        }),
        pa.table({
            "src": pairs["src_qid"],
            "dst": pairs["dst_qid"],
            "predicate": _const("co_occurs_with", len(pairs)),
            "year": pairs["year"],
            "weight": pairs["weight"],
            "freq_src": pairs["freq_src"],
            "freq_dst": pairs["freq_dst"],
        }),
    ])


def incremental_mentions(base: Dataset, delta: Dataset) -> Dataset:
    """Incremental KG update: merge a new crawl increment's mention table
    into an existing one. Because every downstream aggregate (triples,
    canonicalization, co-occurrence) is an additive groupby over mention
    rows, the ONLY cross-increment interaction is duplicate pages
    appearing in both crawls — and exact-duplicate pages produce
    byte-identical mention rows (see dedup_mentions), so one mention-level
    dedup over the union restores exactly the batch-run table:
    ``aggregates(incremental_mentions(m_a, m_b)) ==
    aggregates(extract_mentions(pages_a ∪ pages_b))``, property-tested in
    tests/test_hits_skyline.py. Only mention-scale rows enter the
    exchange; the already-processed corpus is never re-read."""
    return dedup_mentions(base.union(delta))


def extract_mentions_checkpointed(
    pages_dir: str,
    out_root: str,
    *,
    model: str = "alias",
) -> dict:
    """INPUT-shard-level extraction checkpointing — the resume unit a
    10¹²-doc crawl actually has: each pages shard's mentions land in
    their own ``shard=<name>`` partition with a lineage manifest
    (``state.manifest``: input fragment, row count, order-insensitive
    content hash, wall); a resumed run re-extracts ONLY shards whose
    manifest is missing. Complements :func:`graph.write_partitioned`,
    which checkpoints the OUTPUT side by hash bucket — together they
    cover both failure units (a lost input shard task, a lost output
    partition write).

    Every shard to redo is extracted in ONE execution: one read of their
    files with the source path of each page (``include_paths``), whose
    file name becomes a ``shard`` column that :func:`_tag_batch` carries
    onto the mentions. One ``sort(["shard", "mention_id"])`` and a
    run-compare over both keys drop duplicates within each shard (never
    across shards). ``graph._write_and_publish``, the writer of the graph
    tables too, then writes the rows partitioned by shard and publishes
    each shard's manifest (fragments: that shard's file) AFTER the data
    (crash ⇒ no manifest ⇒ redone); a shard that yields no mentions gets
    an empty partition with a 0-row manifest.

    Cross-shard duplicate pages are not deduped here —
    :func:`read_checkpointed_mentions` re-applies the mention-row dedup
    (mention-scale, cheap) so the union is byte-equal to a monolithic
    ``extract_mentions`` run.

    Returns ``{written: [...], skipped: [...], row_count}``.
    """
    import glob as _glob
    import os as _os

    from ..state.manifest import incomplete_partitions
    from .graph import _preserving_order, _write_and_publish

    shards = sorted(_glob.glob(_os.path.join(pages_dir, "*.parquet")))

    def key_of(f: str) -> str:
        return "shard=" + _os.path.splitext(_os.path.basename(f))[0]

    keys = [key_of(f) for f in shards]
    todo = set(incomplete_partitions(out_root, keys))
    skipped = sorted(set(keys) - todo)
    todo_files = [f for f in shards if key_of(f) in todo]
    if not todo_files:
        return {"written": [], "skipped": skipped, "row_count": 0}
    pages = read_pages(todo_files, include_paths=True).map_batches(
        _shard_of_path, batch_format="pyarrow")
    m = extract_mentions(pages, model=model, dedup=False)
    m = m.sort(["shard", "mention_id"]).map_batches(
        _drop_dup_runs(["shard", "mention_id"]), batch_format="pyarrow",
        batch_size=None)
    with _preserving_order(m):
        written, total = _write_and_publish(
            m, out_root, "shard", {key_of(f): [f] for f in todo_files})
    return {"written": written, "skipped": skipped, "row_count": total}


def _shard_of_path(t: pa.Table) -> pa.Table:
    """Replace the read's ``path`` column by the shard name: the file name
    without its ``.parquet`` suffix."""
    shard = pc.replace_substring_regex(t["path"], pattern=r"^(.*/)?(.*)\.parquet$",
                                       replacement=r"\2")
    return t.drop_columns(["path"]).append_column("shard", shard)


def read_checkpointed_mentions(out_root: str, *, dedup: bool = True) -> Dataset:
    """Union of all checkpointed shard partitions, with the mention-row
    dedup re-applied (cross-shard duplicate pages; see
    :func:`extract_mentions_checkpointed`) so the result is equal to a
    monolithic :func:`extract_mentions` run over the whole corpus.

    The read splits the files into as many blocks as Ray's default
    parallelism asks for; the shard-column drop takes batches of
    :data:`MENTION_ROWS_PER_BLOCK` rows, which merges them back into one
    block per that many rows before the next range sort (the dedup's,
    or :func:`graph_tables`' host sort)."""
    import glob as _glob
    import os as _os

    from ..state.manifest import partition_data_files

    # resolve each shard's files via its manifest's data_files commit
    # list (NOT a bare glob): after a crashed compaction, compacted +
    # original files can coexist and only the manifest says which set
    # is live
    files = sorted(
        f for pdir in _glob.glob(_os.path.join(out_root, "shard=*"))
        for f in partition_data_files(pdir))
    ds = ray.data.read_parquet(files).map_batches(
        lambda t: t.drop_columns(["shard"]) if "shard" in t.column_names
        else t,
        batch_format="pyarrow", batch_size=MENTION_ROWS_PER_BLOCK)
    return dedup_mentions(ds) if dedup else ds


def flagship_resumable(
    pages_path: str,
    workdir: str,
    *,
    num_partitions: int = 8,
    model: str = "alias",
) -> dict:
    """END-TO-END crash-resumable flagship: extraction checkpoints per
    INPUT shard (:func:`extract_mentions_checkpointed`), the graph
    materializes with per-OUTPUT-partition lineage manifests
    (:func:`graph.materialize_graph`) — so a rerun after any partial
    failure (lost extraction task, lost partition write, killed driver)
    redoes only the missing units, and a rerun after success is a
    complete no-op. The graph tables between the two checkpoints
    (:func:`graph_tables`) are derived from the checkpointed mentions,
    which are ~10³× smaller than the corpus — recomputing them on resume
    costs minutes at 10¹² docs, vs the extraction they no longer have to
    repeat.

    Returns ``{"extract": <summary>, "graph": <summary>}``.
    """
    import os as _os

    from .graph import materialize_graph

    mdir = _os.path.join(workdir, "mentions")
    s1 = extract_mentions_checkpointed(pages_path, mdir, model=model)
    g = graph_tables(read_checkpointed_mentions(mdir, dedup=False))
    s2 = materialize_graph(g["nodes"], g["edges"], g["mentions"],
                           _os.path.join(workdir, "graph"),
                           num_partitions=num_partitions,
                           input_fragments=[pages_path])
    return {"extract": s1, "graph": s2}
