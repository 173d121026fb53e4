"""Benchmark harness (driver contract: one JSON line on stdout).

Headline: the flagship KG pipeline (synthetic Common-Crawl-style pages →
mentions → triples + canonicalization + co-occurrence → partitioned graph
write) at the scale factor of ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1
→ 200k pages), plus representative operator pipelines over the sf tables.

``python bench.py``            one timed run at $RAY_GRAFT_CPUS (default 32)
``python bench.py --scaling``  same job in fresh processes at 8 and 32 CPUs →
                               throughput at both + scaling efficiency
                               (sandbox stand-in for the N vs 4N-node rule).

Scaling metric definition (both numbers are first-class, see BASELINE.md):

* ``scaling_efficiency`` — raw ``(thr_hi/thr_lo)/(cpus_hi/cpus_lo)``. On ONE
  box this conflates two terms: utilization scaling and the per-core
  clock/memory-bandwidth coupling of running 4× more busy cores on shared
  silicon (a term that does not exist between separate N- and 4N-node
  clusters).
* ``scaling_efficiency_normalized`` — ``(busy_hi/busy_lo)/(cpus_hi/cpus_lo)``
  from a /proc/stat busy-core probe sampled over each leg's flagship run:
  did the job actually keep 4× more cores busy? This is the architecture
  term the N→4N rule targets; ``per_core_coupling`` (the remaining factor,
  ``raw == normalized × coupling``) is published alongside so nothing is
  hidden. Keep the box idle during --scaling: the probe measures box-wide
  busy cores, so co-tenant load contaminates both numbers.

Each run also emits ``phases`` (flagship internal walls: mention extraction,
the three aggregates, graph write) and ``stage_breakdown`` (per-operator
wall seconds parsed from ``ds.stats()`` for the slowest secondary queries),
so environment noise and code regressions are separable after the fact.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time


def _busy_ticks() -> int:
    """Aggregate non-idle CPU ticks across the box (/proc/stat line 1)."""
    with open("/proc/stat") as f:
        vals = list(map(int, f.readline().split()[1:]))
    idle = vals[3] + (vals[4] if len(vals) > 4 else 0)  # idle + iowait
    return sum(vals) - idle


def _op_breakdown(ds) -> dict[str, float]:
    """Compact per-operator wall seconds from ``ds.stats()`` text."""
    try:
        txt = ds.stats()
    except Exception:
        return {}
    out: dict[str, float] = {}
    for m in re.finditer(
        r"Operator (\d+) (.+?):(?:.*?produced)? in ([\d.]+)s", txt
    ):
        out[f"{m.group(1)}:{m.group(2)[:70]}"] = float(m.group(3))
    for m in re.finditer(r"Operator (\d+) (.+?): executed in ([\d.]+)s", txt):
        out.setdefault(f"{m.group(1)}:{m.group(2)[:70]}", float(m.group(3)))
    return out


def run_bench() -> dict:
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    # --scaling boosts the corpus (same input at both CPU levels) so the
    # measured efficiency reflects compute scaling, not fixed per-stage cost
    mult = int(os.environ.get("GRAFT_PAGES_MULT", "1"))
    # "alias" = fast surrogate (headline); "simbert" = same outputs plus a
    # BERT-shaped per-sentence forward — the compute profile the north-star
    # metric targets (reference: model ≈ 99 % of wall-time). --scaling uses it.
    model = os.environ.get("GRAFT_TAGGER_MODEL", "alias")

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from newsagency_classification_ray.pipelines import graph, kg
    from newsagency_classification_ray.sources.pages import (
        ensure_pages, pages_count_for_sf, sf_of_dir,
    )
    import newsagency_classification_ray.queries as Q

    # untimed: build/warm the synthetic pages corpus + OS page cache
    pages_path = ensure_pages(sf_dir, mult=mult)
    import glob as _glob

    for shard in _glob.glob(os.path.join(pages_path, "*.parquet")):
        with open(shard, "rb") as f:
            while f.read(1 << 24):
                pass

    # sub-5s query timings are dominated by co-tenant noise in single runs
    # (r1→r2 showed ±50 % swings on untouched code paths); report the MEDIAN
    # of N runs plus the spread so real regressions are separable from noise.
    # Scaling legs force repeats=1 (only the flagship number feeds efficiency).
    repeats = int(os.environ.get("GRAFT_BENCH_REPEATS", "3"))
    queries: dict[str, float] = {}
    runs: dict[str, list[float]] = {}

    def timed(name: str, fn, n: int | None = None):
        out = None
        ts = []
        for _ in range(n if n is not None else repeats):
            t0 = time.perf_counter()
            out = fn()
            ts.append(round(time.perf_counter() - t0, 3))
        runs[name] = ts
        queries[name] = round(statistics.median(ts), 3)
        return out

    # headline: full KG construction incl. partitioned graph write
    out_root = f"/tmp/nacr_bench_out_{ncpu}"
    n_pages = pages_count_for_sf(sf_of_dir(sf_dir)) * mult
    counts: dict[str, int] = {}
    phases: dict[str, float] = {}

    def flagship():
        # fresh output dir per run — the manifest resume would otherwise make
        # repeat runs skip the graph write and report an artificially low time
        shutil.rmtree(out_root, ignore_errors=True)
        # alias (cheap tasks): ~2 blocks/CPU keeps driver dispatch low.
        # simbert (model-bound): ~4 blocks/CPU/corpus-multiple — blocks must
        # scale WITH the corpus so task length stays constant; otherwise the
        # final partial wave strands most of the tagger's task slots for one
        # whole task length (measured: ~150 s tail at mult=4 with fixed blocks).
        blocks = ncpu * 2 * mult if model == "alias" else ncpu * 4 * mult
        pages = kg.read_pages(pages_path, override_num_blocks=blocks)
        p0 = time.perf_counter()
        mentions = kg.extract_mentions(
            pages,
            # fixed task cap at 3/4 of the CPUs: the 8→32 comparison then
            # holds the tagger's concurrency ratio at exactly 4×. Cap at
            # ncpu-2 so the linker and read tasks keep slots of their own.
            tagger_concurrency=max(2, min((ncpu * 3) // 4, ncpu - 2)),
            batch_size=1024 if model == "alias" else 256,
            model=model,
        ).materialize()
        phases["extract_mentions"] = round(time.perf_counter() - p0, 3)
        phases["extract_ops"] = _op_breakdown(mentions)
        p0 = time.perf_counter()
        # the aggregates are ~10^4x smaller than the input and each has two
        # downstream consumers (nodes + edges) — pin them once. They are
        # independent, and at sandbox scale each is exchange-LATENCY-bound
        # (not data-bound), so materialize the three concurrently: the
        # streaming executor interleaves their stages instead of paying
        # ~13 sequential exchange round-trips
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=3) as pool:
            f_trip = pool.submit(lambda: kg.triples(mentions).materialize())
            f_canon = pool.submit(lambda: kg.canonicalize(mentions).materialize())
            f_cooc = pool.submit(lambda: kg.cooccurrence_edges(mentions).materialize())
            trip, canon, cooc = f_trip.result(), f_canon.result(), f_cooc.result()
        phases["aggregates"] = round(time.perf_counter() - p0, 3)
        p0 = time.perf_counter()
        nodes = kg.build_nodes(canon, trip)
        edges = kg.build_edges(trip, cooc)
        graph.materialize_graph(nodes, edges, mentions, out_root,
                                num_partitions=16, input_fragments=[pages_path])
        phases["graph_write"] = round(time.perf_counter() - p0, 3)
        counts["mentions"] = mentions.count()
        counts["triples"] = trip.count()

    # model-bound (simbert) runs cost minutes per repeat — single-shot those;
    # the alias headline is cheap enough to median like the rest.
    # /proc/stat probe brackets the flagship runs: average busy cores over
    # the interval feeds the normalized scaling metric (see module docstring)
    _hz = os.sysconf("SC_CLK_TCK")
    _b0, _t0 = _busy_ticks(), time.perf_counter()
    timed("kg_flagship", flagship, n=repeats if model == "alias" else 1)
    _b1, _t1 = _busy_ticks(), time.perf_counter()
    busy_cores = round((_b1 - _b0) / _hz / max(_t1 - _t0, 1e-9), 2)
    # the historically-slowest secondary queries also record a per-operator
    # wall breakdown (ds.stats() of their final materialized dataset) so a
    # future wall-time shift is attributable to a stage, not guessed
    stage_breakdown: dict[str, dict] = {}

    def timed_stats(name: str, make):
        holder = {}

        def run():
            m = make().materialize()
            holder["m"] = m
            return m.count()

        timed(name, run)
        if "m" in holder:
            stage_breakdown[name] = _op_breakdown(holder["m"])

    timed("pricing_summary", lambda: Q.q_pricing_summary(sf_dir).to_pandas())
    timed("events_hourly", lambda: Q.q_events_hourly(sf_dir).to_pandas())
    timed("events_sessions", lambda: Q.q_events_sessions(sf_dir).count())
    timed_stats("orders_lineitem_join", lambda: Q.q_orders_lineitem_join(sf_dir))
    timed("docs_exact_dedup", lambda: Q.q_docs_exact_dedup(sf_dir).count())
    timed_stats("docs_substring_dups", lambda: Q.q_docs_substring_dups(sf_dir))
    timed_stats("docs_lm_scores", lambda: Q.q_docs_lm_scores(sf_dir))
    timed_stats("minhash_pairs", lambda: Q.q_minhash_pairs(sf_dir))
    timed("ann_topk", lambda: Q.q_ann_topk(sf_dir).to_pandas())
    timed("docs_tfidf_topk", lambda: Q.q_docs_tfidf_topk(sf_dir).to_pandas())
    timed("embeddings_kmeans", lambda: Q.q_embeddings_kmeans(sf_dir).count())
    timed_stats("kg_pagerank", lambda: Q.q_kg_pagerank(sf_dir))
    timed("docs_bpe_pairs", lambda: Q.q_docs_bpe_pairs(sf_dir).num_rows)
    timed("docs_curation_e2e", lambda: Q.q_docs_curation_e2e(sf_dir).count())
    timed("events_funnel", lambda: Q.q_events_funnel(sf_dir).num_rows)
    timed("q5_supplier_volume", lambda: Q.q5_supplier_volume(sf_dir).count())
    timed("events_gap_stats", lambda: Q.q_events_gap_stats(sf_dir).count())
    timed("events_attribution",
          lambda: Q.q_events_attribution(sf_dir).count())
    timed("lineitem_mad", lambda: Q.q_lineitem_mad(sf_dir).num_rows)
    timed("docs_vocab_growth", lambda: Q.q_docs_vocab_growth(sf_dir).count())
    timed("kg_ppr", lambda: Q.q_kg_ppr(sf_dir).count())
    timed("user_360", lambda: Q.q_user_360(sf_dir).count())
    timed("lineitem_pareto", lambda: Q.q_lineitem_pareto(sf_dir).count())
    timed("q3_shipping_priority",
          lambda: Q.QUERIES["q3_shipping_priority"](sf_dir).num_rows)
    timed("q10_returned_items",
          lambda: Q.QUERIES["q10_returned_items"](sf_dir).num_rows)
    timed("q18_large_volume",
          lambda: Q.QUERIES["q18_large_volume"](sf_dir).num_rows)
    timed("docs_pmi_bigrams", lambda: Q.q_docs_pmi_bigrams(sf_dir).num_rows)
    timed("docs_gopher_rules",
          lambda: Q.q_docs_gopher_rules(sf_dir).count())
    timed("q9_product_type_profit",
          lambda: Q.QUERIES["q9_product_type_profit"](sf_dir).count())
    timed("q21_waiting_suppliers",
          lambda: Q.QUERIES["q21_waiting_suppliers"](sf_dir).num_rows)
    # late-r4 additions: layout math, vocabulary-scale text reduce, cohort
    # groupby, dedup clustering end-to-end
    timed("lineitem_zorder",
          lambda: Q.QUERIES["lineitem_zorder"](sf_dir).count())
    timed("source_vocab_stats",
          lambda: Q.QUERIES["source_vocab_stats"](sf_dir).count())
    timed("events_type_sets",
          lambda: Q.QUERIES["events_type_sets"](sf_dir).count())
    timed("dup_cluster_histogram",
          lambda: Q.QUERIES["dup_cluster_histogram"](sf_dir).count())
    # closing-session additions: global rank join-back, three-pass NTILE
    # scoring, pair-counting dedup evaluation, vectorized Jaro-Winkler ER
    timed("orders_percent_rank",
          lambda: Q.QUERIES["orders_percent_rank"](sf_dir).count())
    timed("customer_rfm",
          lambda: Q.QUERIES["customer_rfm"](sf_dir).count())
    timed("docs_cluster_quality",
          lambda: Q.QUERIES["docs_cluster_quality"](sf_dir).count())
    timed("part_jw_names",
          lambda: Q.QUERIES["part_jw_names"](sf_dir).count())
    # this-session additions: all-pairs DBSCAN, 199-way hash
    # rerandomization, set-similarity self-join, per-key stateful replay,
    # fact-fact interval backlog
    timed("embeddings_dbscan",
          lambda: Q.QUERIES["embeddings_dbscan"](sf_dir).num_rows)
    timed("events_permutation_test",
          lambda: Q.QUERIES["events_permutation_test"](sf_dir).num_rows)
    timed("supplier_part_jaccard",
          lambda: Q.QUERIES["supplier_part_jaccard"](sf_dir).num_rows)
    timed("events_token_bucket",
          lambda: Q.QUERIES["events_token_bucket"](sf_dir).count())
    timed("orders_open_backlog",
          lambda: Q.QUERIES["orders_open_backlog"](sf_dir).num_rows)
    # round-4-closing additions: the heaviest of the new operator families
    timed("events_overlap_join",
          lambda: Q.QUERIES["events_overlap_join"](sf_dir).count())
    timed("kg_katz", lambda: Q.QUERIES["kg_katz"](sf_dir).num_rows)
    timed("kg_core_numbers",
          lambda: Q.QUERIES["kg_core_numbers"](sf_dir).count())
    timed("lineitem_poisson_bootstrap",
          lambda: Q.QUERIES["lineitem_poisson_bootstrap"](sf_dir).count())
    timed("kg_incremental_cooccurrence",
          lambda: Q.QUERIES["kg_incremental_cooccurrence"](sf_dir).count())
    timed("docs_distinct_ngram_diversity",
          lambda: Q.QUERIES["docs_distinct_ngram_diversity"]
          (sf_dir).num_rows)

    headline = queries["kg_flagship"]
    result = {
        "metric": "kg_flagship_e2e",
        "value": headline,
        "unit": "sec",
        "queries": queries,
        "sf": sf_of_dir(sf_dir),
        "num_cpus": ncpu,
        "n_pages": n_pages,
        "n_mentions": counts.get("mentions"),
        "n_triples": counts.get("triples"),
        "pages_per_sec": round(n_pages / headline, 1),
        "triples_per_sec": round(counts.get("triples", 0) / headline, 1),
        "tagger_model": model,
        "repeats": repeats,
        "runs": runs,
        "busy_cores_flagship": busy_cores,
        "phases": phases,
        "stage_breakdown": stage_breakdown,
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    # 8x corpus: the job must be compute-dominated for the efficiency number
    # to measure scaling rather than fixed per-stage cost (~9 s of exchange
    # spin-up + write latency is parallelism-independent; at 1.6M pages the
    # model-bound stage is >95 % of wall on both legs — r2 measured at 4x
    # a 0.76-0.89 band whose spread was mostly the fixed floor's share)
    mult = os.environ.get("GRAFT_PAGES_MULT", "8")
    model = os.environ.get("GRAFT_TAGGER_MODEL", "simbert")

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_PAGES_MULT=mult,
                   GRAFT_TAGGER_MODEL=model,
                   # one run per leg: only the flagship time feeds efficiency,
                   # and repeating the secondary queries would triple leg time
                   GRAFT_BENCH_REPEATS=os.environ.get("GRAFT_BENCH_REPEATS", "1"))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # N vs 4N parallelism levels. 8→32 is the default; below ~8 CPUs the
    # stage topology (tagger + linker + read tasks) cannot hold the exact
    # 4× tagger-cap ratio without starving a stage.
    lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))
    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    out = {
        "metric": "kg_flagship_scaling",
        "unit": "sec",
        "cpus_lo": lo,
        "cpus_hi": hi,
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"pages_per_sec_{lo}": r_lo["pages_per_sec"],
        f"pages_per_sec_{hi}": r_hi["pages_per_sec"],
        f"triples_per_sec_{lo}": r_lo["triples_per_sec"],
        f"triples_per_sec_{hi}": r_hi["triples_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "tagger_model": model,
        "sf": r_hi["sf"],
        "value": r_hi["value"],
        "queries": r_hi["queries"],
        "num_cpus": hi,
        "phases_lo": r_lo.get("phases"),
        "phases_hi": r_hi.get("phases"),
    }
    # Decompose raw efficiency into the architecture term (utilization: did
    # the hi leg keep cpus_hi/cpus_lo× more cores busy?) and the single-box
    # coupling term (per-busy-core slowdown from clocks/memory bandwidth —
    # absent between real separate N and 4N nodes). raw == norm × coupling.
    b_lo, b_hi = r_lo.get("busy_cores_flagship"), r_hi.get("busy_cores_flagship")
    if b_lo and b_hi:
        thr_lo = r_lo["pages_per_sec"] / b_lo
        thr_hi = r_hi["pages_per_sec"] / b_hi
        out.update({
            f"busy_cores_{lo}": b_lo,
            f"busy_cores_{hi}": b_hi,
            f"pages_per_sec_per_busy_core_{lo}": round(thr_lo, 1),
            f"pages_per_sec_per_busy_core_{hi}": round(thr_hi, 1),
            "scaling_efficiency_normalized": round((b_hi / b_lo) / (hi / lo), 3),
            "per_core_coupling": round(thr_hi / thr_lo, 3),
        })
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
