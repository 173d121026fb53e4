"""Benchmark harness (driver contract: one JSON line on stdout).

Headline: the flagship KG pipeline (synthetic Common-Crawl-style pages →
mentions → triples + canonicalization + co-occurrence → partitioned graph
write) at the scale factor of ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1
→ 200k pages).

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
the three aggregates, graph write, and the per-operator walls of the
extraction parsed from ``ds.stats()``), so environment noise and code
regressions are separable after the fact.
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

    # untimed: build/warm the synthetic pages corpus + OS page cache
    pages_path = ensure_pages(sf_dir, mult=mult)
    import glob as _glob

    for shard in _glob.glob(os.path.join(pages_path, "*.parquet")):
        with open(shard, "rb") as f:
            while f.read(1 << 24):
                pass

    # single runs are dominated by co-tenant noise (r1→r2 showed ±50 %
    # swings on untouched code paths); report the MEDIAN of N runs plus the
    # spread so real regressions are separable from noise.
    repeats = int(os.environ.get("GRAFT_BENCH_REPEATS", "3"))

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
    # the alias headline is cheap enough to take the median of repeats.
    # /proc/stat probe brackets the flagship runs: average busy cores over
    # the interval feeds the normalized scaling metric (see module docstring)
    _hz = os.sysconf("SC_CLK_TCK")
    _b0, _t0 = _busy_ticks(), time.perf_counter()
    runs = []
    for _ in range(repeats if model == "alias" else 1):
        t0 = time.perf_counter()
        flagship()
        runs.append(round(time.perf_counter() - t0, 3))
    _b1, _t1 = _busy_ticks(), time.perf_counter()
    busy_cores = round((_b1 - _b0) / _hz / max(_t1 - _t0, 1e-9), 2)
    headline = round(statistics.median(runs), 3)
    result = {
        "metric": "kg_flagship_e2e",
        "value": headline,
        "unit": "sec",
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
                   # one run per leg: only the flagship time feeds efficiency
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
