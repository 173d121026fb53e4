"""Flagship KG-construction pipeline (SURVEY.md §7.1 dataflow).

    read_parquet(pages) → filter(lang, nonempty)            # M1/M2, stateless
      → exact dedup by url                                  # D1 (README.md:86 dup bug)
      → map_batches(extract_text)                           # byte-identical text
      → map_batches(_tag_batch,  concurrency=cap)           # T1 on warm task workers
      → map_batches(_link_batch, concurrency=cap)           # T5 on warm task workers
      → mentions ──┬─ write_parquet(mentions/)
                   ├─ triples  (url, 'cites_agency', qid, year, n_mentions)
                   ├─ canonicalize: SALTED keyed aggregate on normalized surface form  # A2
                   ├─ co-occurrence edges per (host, year)                              # A3
                   └─ sorted, partitioned graph materialize with manifests              # F6

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
  the mention side (``dedup_mentions`` — identical pages yield byte-identical
  mention rows), so the default pipeline has NO full-input shuffle at all;
  ``dedup="pages"`` opts into the payload-moving ``dedup_by_url`` only for
  inputs whose duplicates are not exact copies.
* Mention-scale datasets have one block per :data:`MENTION_ROWS_PER_BLOCK`
  rows, set by the ``batch_size`` of the map at each source (derived
  columns, checkpoint read, graph partition key). A range ``sort`` keeps its
  input's block count, so the source fixes the width of every exchange
  after it and the number of files each partitioned write leaves.
* Every keyed aggregate is :func:`keyed_aggregate`: a range-partitioning
  ``sort`` on the key, then ONE Arrow ``group_by`` kernel per block — no
  per-group Python (Ray's ``groupby().aggregate()`` reduces each group in a
  Python loop).
* Canonicalization pre-aggregates inside ``map_batches`` (combiner), salts the
  Zipfian surface-form key (Reuters/Havas head — reference README.md:88-90),
  merges partials, then de-salts: two cheap shuffles over partial rows instead
  of one skewed shuffle over every mention.
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


def read_pages(path: str, columns: list[str] | None = None, **kwargs) -> Dataset:
    """Read the pages table, pruning to the pipeline's columns at the read."""
    return ray.data.read_parquet(
        path, columns=columns or ["url", "warc_ts", "html", "text", "lang"], **kwargs
    )


def _drop_dup_runs(key: str):
    """Vectorized keep-first-of-run over a block sorted by ``key``."""
    def fn(t: pa.Table) -> pa.Table:
        if len(t) <= 1:
            return t
        col = t[key].combine_chunks()
        neq = pc.not_equal(col.slice(1), col.slice(0, len(t) - 1))
        keep = pa.chunked_array([pa.array([True]), pc.fill_null(neq, True)])
        return t.filter(keep)
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
    tagger_concurrency: int | tuple[int, int] = (1, 8),
    linker_concurrency: int | tuple[int, int] = (1, 4),
    batch_size: int = 256,
    dedup: bool | str = True,
    model: str = "alias",
) -> Dataset:
    """pages → mentions (tag + link) on warm task workers.

    ``tagger_concurrency`` / ``linker_concurrency`` cap the number of
    concurrent tasks of each stage: an int is the cap, a ``(min, max)``
    tuple's ``max`` is.

    ``dedup``: ``"mentions"`` / ``True`` dedups duplicate pages on the *small*
    side (identical mention rows, see :func:`dedup_mentions`); ``"pages"``
    shuffles the full page payload through :func:`dedup_by_url` first
    (needed only when duplicate pages are NOT exact copies); ``False`` skips.

    Mention output is ~10³× smaller than the page input, so the blocks
    inherited from the read are tiny. The derived-column map takes batches
    of :data:`MENTION_ROWS_PER_BLOCK` rows, which merges them into one block
    per that many mention rows (no shuffle), so the exchanges downstream are
    as wide as the mention rows need, not as the input's block count.
    """
    ds = pages.map_batches(filter_pages, batch_format="pyarrow")
    if dedup == "pages":
        ds = dedup_by_url(ds)
    ds = ds.map_batches(extract_text_batch, batch_format="pyarrow")
    ds = ds.map_batches(
        _tag_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=_task_cap(tagger_concurrency),
        num_cpus=1,
        fn_kwargs={"model": model},
    )
    ds = ds.map_batches(
        _link_batch,
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=_task_cap(linker_concurrency),
        num_cpus=1,
    )
    ds = ds.map_batches(_derive_mention_meta, batch_format="pyarrow",
                        batch_size=MENTION_ROWS_PER_BLOCK)
    if dedup in (True, "mentions"):
        ds = dedup_mentions(ds)
    return ds


def _task_cap(concurrency: int | tuple[int, int]) -> int:
    return concurrency[1] if isinstance(concurrency, tuple) else concurrency


def _tag_batch(batch: pa.Table, model: str) -> pa.Table:
    return warm_stage(TaggerStage, model=model)(batch)


def _link_batch(batch: pa.Table) -> pa.Table:
    return warm_stage(LinkerStage)(batch)


def keyed_aggregate(ds: Dataset, keys: str | list[str],
                    aggs: dict[str, tuple[str, str]]) -> Dataset:
    """``groupby(keys).aggregate(...)`` as one Arrow kernel per block.

    ``aggs`` maps each output column to ``(input column, pyarrow hash
    aggregate)``, e.g. ``{"n_mentions": ("n", "sum"), "year": ("year",
    "max")}``; the output is the key columns then ``aggs`` in order. The
    range-partitioning ``sort`` puts all rows of a key in one block (the
    guarantee :func:`dedup_mentions` relies on), so one
    ``pa.Table.group_by`` per block (``batch_size=None``) is the complete
    aggregate — where Ray's ``groupby().aggregate()`` reduces each group in
    a Python loop. Single-threaded ``group_by`` emits groups in order of
    first appearance, so the sorted blocks stay sorted by key.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def fn(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(list(aggs.values()))
        # select by NAME (pyarrow key/aggregate order is version-dependent)
        return pa.table({**{k: g[k] for k in keys},
                         **{out: g[f"{col}_{f}"] for out, (col, f) in aggs.items()}})

    return ds.sort(keys).map_batches(fn, batch_format="pyarrow", batch_size=None)


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


def url_hash_bucket(urls: pa.Array, buckets: int) -> pa.Array:
    """Deterministic partition id per url (resume/partition key) — delegates
    to the graph writer's vectorized stable hash so every component maps a
    url to the same partition."""
    from .graph import _crc_bucket_col

    return _crc_bucket_col(urls, buckets)


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


def flagship(
    pages_path: str,
    *,
    tagger_concurrency: int | tuple[int, int] = (1, 8),
    dedup: bool = True,
    salt_buckets: int = DEFAULT_SALT_BUCKETS,
) -> dict[str, Dataset]:
    """Build every stage of the flagship pipeline (lazy — nothing executes)."""
    pages = read_pages(pages_path)
    mentions = extract_mentions(pages, tagger_concurrency=tagger_concurrency, dedup=dedup)
    trip = triples(mentions)
    canon = canonicalize(mentions, salt_buckets=salt_buckets)
    cooc = cooccurrence_edges(mentions)
    nodes = build_nodes(canon, trip)
    edges = build_edges(trip, cooc)
    return {"pages": pages, "mentions": mentions, "triples": trip,
            "canonical": canon, "cooccurrence": cooc, "nodes": nodes, "edges": edges}


def extract_mentions_checkpointed(
    pages_dir: str,
    out_root: str,
    *,
    wave_size: int = 1,
    model: str = "alias",
    tagger_concurrency: int | tuple[int, int] = (1, 8),
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

    Shards are processed in waves of ``wave_size`` (default 1:
    sequential shards, FULL cluster parallelism inside each shard — at
    crawl scale one shard alone saturates the cluster). The tagger and
    linker run as plain tasks that hold no CPU between batches, so any
    wave size fits any CPU budget; a larger wave only adds branches
    competing for the same task slots. Within a wave the branches
    execute as ONE streaming union. The manifest is written AFTER the
    wave's data files (crash ⇒ no manifest ⇒ redone).

    Cross-shard duplicate pages cannot dedup inside a shard run —
    :func:`read_checkpointed_mentions` re-applies the mention-row dedup
    (mention-scale, cheap) so the union is byte-equal to a monolithic
    ``extract_mentions`` run.

    Returns ``{written: [...], skipped: [...], row_count}``.
    """
    import glob as _glob
    import os as _os
    import shutil as _shutil
    import time as _time

    from ..state.manifest import incomplete_partitions, write_manifest

    shards = sorted(_glob.glob(_os.path.join(pages_dir, "*.parquet")))

    def key_of(f: str) -> str:
        return "shard=" + _os.path.splitext(_os.path.basename(f))[0]

    keys = [key_of(f) for f in shards]
    todo = set(incomplete_partitions(out_root, keys))
    skipped = sorted(set(keys) - todo)
    todo_files = [f for f in shards if key_of(f) in todo]
    written: list[str] = []
    total = 0
    for w0 in range(0, len(todo_files), wave_size):
        wave = todo_files[w0:w0 + wave_size]
        t0 = _time.time()
        ds = None
        for f in wave:
            m = extract_mentions(read_pages(f), model=model,
                                 tagger_concurrency=tagger_concurrency)
            tag = key_of(f).split("=", 1)[1]
            b = m.map_batches(
                lambda t, s=tag: t.append_column(
                    "shard", pa.array([s] * len(t), pa.string())),
                batch_format="pyarrow")
            ds = b if ds is None else ds.union(b)
        for f in wave:  # scrub stale partials from a crashed run
            pdir = _os.path.join(out_root, key_of(f))
            if _os.path.isdir(pdir):
                _shutil.rmtree(pdir)
        ds.write_parquet(out_root, partition_cols=["shard"])
        # manifest pass: one Ray task per shard partition (same
        # _hash_partition_files task as graph.write_partitioned — a
        # serial driver row-group loop here was the resume layer's
        # bottleneck at 10⁵ crawl shards)
        from .graph import hash_partition_task

        _hash_partition = hash_partition_task()
        pending = []
        for f in wave:
            pdir = _os.path.join(out_root, key_of(f))
            _os.makedirs(pdir, exist_ok=True)
            pending.append((f, pdir, _hash_partition.remote(pdir)))
        for f, pdir, ref in pending:
            nrows, h = ray.get(ref)
            write_manifest(pdir, key_of(f), nrows, h,
                           [f], _time.time() - t0)
            written.append(key_of(f))
            total += nrows
    return {"written": written, "skipped": skipped, "row_count": total}


def read_checkpointed_mentions(out_root: str, *, dedup: bool = True) -> Dataset:
    """Union of all checkpointed shard partitions, with the mention-row
    dedup re-applied (cross-shard duplicate pages; see
    :func:`extract_mentions_checkpointed`) so the result is equal to a
    monolithic :func:`extract_mentions` run over the whole corpus.

    The read splits the files into as many blocks as Ray's default
    parallelism asks for; the shard-column drop takes batches of
    :data:`MENTION_ROWS_PER_BLOCK` rows, which merges them back into one
    block per that many rows before the dedup's range sort."""
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
    wave_size: int = 1,
) -> dict:
    """END-TO-END crash-resumable flagship: extraction checkpoints per
    INPUT shard (:func:`extract_mentions_checkpointed`), the graph
    materializes with per-OUTPUT-partition lineage manifests
    (:func:`graph.materialize_graph`) — so a rerun after any partial
    failure (lost extraction task, lost partition write, killed driver)
    redoes only the missing units, and a rerun after success is a
    complete no-op. The aggregate stages between the two checkpoints
    (triples / canonicalization / co-occurrence / node-edge build) are
    derived from the checkpointed mentions, which are ~10³× smaller than
    the corpus — recomputing them on resume costs minutes at 10¹² docs,
    vs the extraction they no longer have to repeat.

    Returns ``{"extract": <summary>, "graph": <summary>}``.
    """
    import os as _os

    from .graph import materialize_graph

    mdir = _os.path.join(workdir, "mentions")
    s1 = extract_mentions_checkpointed(pages_path, mdir, model=model,
                                       wave_size=wave_size)
    m = read_checkpointed_mentions(mdir).materialize()
    trip = triples(m)
    canon = canonicalize(m)
    cooc = cooccurrence_edges(m)
    nodes = build_nodes(canon, trip)
    edges = build_edges(trip, cooc)
    s2 = materialize_graph(nodes, edges, m, _os.path.join(workdir, "graph"),
                           num_partitions=num_partitions,
                           input_fragments=[pages_path])
    return {"extract": s1, "graph": s2}
