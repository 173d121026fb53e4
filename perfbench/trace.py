"""The traced run: per-layer metrics from spans the benchmark records around
its calls into each layer.

One traced op repeats the workload's op with every layer's output
materialized at its boundary, so each span covers exactly that layer's Ray
execution. Stage self times come from calling the stage callables
in-process on the corpus's Arrow batches, without Ray; the gap between the
Ray wall of ``extract_mentions`` and their sum is Ray's overhead on it.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Spans kept in memory, written out once at the end of the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wall(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration minus the part covered by child spans (children of one
        span run one after another, so their durations add)."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name:
                kids = sum(c.end - c.start for c in self.spans if c.parent == i)
                total += (s.end - s.start) - kids
        return total

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([s.__dict__ for s in self.spans], f)


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or ".write_s." in metric:
        return "s"
    if metric.endswith("bytes") or metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("share"):
        return "fraction"
    return "count"


def _exchanges(ds) -> int:
    """All-to-all operators (sort, aggregate, shuffle) in a lazy plan."""
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll)

    n, todo = 0, [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        n += isinstance(op, AbstractAllToAll)
        todo.extend(op.input_dependencies)
    return n


class TracedOp:
    """Runs the layers of one op under spans, materializing at boundaries."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.exchanges = 0

    def materialize(self, name: str, ds):
        self.exchanges += _exchanges(ds)
        with self.t.span(name):
            return ds.materialize()

    def aggregates_and_write(self, mentions, out_root: str, num_partitions: int,
                             fragments: list[str], salt_buckets: int | None = None):
        """triples, canonicalize, co-occurrence, nodes/edges, then the three
        partitioned writes, with the arguments ``cli.run_pipeline`` and
        ``kg.flagship_resumable`` pass."""
        from newsagency_classification_ray.pipelines import graph, kg

        trip = self.materialize("kg.triples", kg.triples(mentions))
        canon = self.materialize(
            "kg.canonicalize", kg.canonicalize(mentions) if salt_buckets is None
            else kg.canonicalize(mentions, salt_buckets=salt_buckets))
        cooc = self.materialize("kg.cooccurrence", kg.cooccurrence_edges(mentions))
        nodes = self.materialize("kg.nodes_edges", kg.build_nodes(canon, trip))
        edges = self.materialize("kg.nodes_edges", kg.build_edges(trip, cooc))
        jobs = {"nodes": (nodes, "node_id", ["node_id"]),
                "edges": (edges, "src", ["src", "dst", "year"]),
                "mentions": (mentions, "url", None)}
        summary = {}
        for name, (ds, key, sort_by) in jobs.items():
            self.exchanges += sort_by is not None
            with self.t.span(f"graph.write.{name}"):
                summary[name] = graph.write_partitioned(
                    ds, os.path.join(out_root, name), key,
                    num_partitions=num_partitions, sort_by=sort_by,
                    input_fragments=fragments)
        return summary


def _stage_self_times(files: list[str], cfg) -> dict[str, float]:
    """The page stages called in-process, batch by batch, as Ray calls them:
    filter + extract per read batch, the tagger per ``batch_size`` rows, the
    linker per 4096 mentions (``kg.extract_mentions``'s batch sizes)."""
    from newsagency_classification_ray.stages.extract import (
        extract_text_batch, filter_pages)
    from newsagency_classification_ray.stages.linker import LinkerStage
    from newsagency_classification_ray.stages.tagger import TaggerStage

    tagger, linker = TaggerStage(model=cfg.model), LinkerStage()
    ext = tag = link = 0.0
    unwrapped = 0
    tagged = []
    for f in files:
        t0 = time.perf_counter()
        pages = filter_pages(pq.read_table(f))
        unwrapped += pc.sum(pc.is_null(pages["text"])).as_py() or 0
        pages = extract_text_batch(pages)
        t1 = time.perf_counter()
        ext += t1 - t0
        for lo in range(0, len(pages), cfg.batch_size):
            tagged.append(tagger(pages.slice(lo, cfg.batch_size)))
        tag += time.perf_counter() - t1
    mentions = pa.concat_tables(tagged)
    linked = []
    t0 = time.perf_counter()
    for lo in range(0, len(mentions), 4096):
        linked.append(linker(mentions.slice(lo, 4096)))
    link = time.perf_counter() - t0
    linked_t = pa.concat_tables(linked) if linked else mentions
    nil = pc.sum(pc.equal(linked_t["qid"], "NIL")).as_py() if len(linked_t) else 0
    return {
        "extract.self_s": ext, "extract.html_unwrapped": unwrapped,
        "tagger.self_s": tag, "tagger.mentions_out": len(mentions),
        "linker.self_s": link,
        "linker.unique_surfaces": len(pc.unique(mentions["surface"])),
        "linker.nil_share": nil / len(linked_t) if len(linked_t) else 0.0,
    }


def _output_stats(graph_dir: str) -> dict[str, float]:
    from .check import TABLES

    rows = files = size = 0
    for t in TABLES:
        for dirpath, _, names in os.walk(os.path.join(graph_dir, t)):
            for n in names:
                if n.endswith(".parquet"):
                    p = os.path.join(dirpath, n)
                    files += 1
                    size += os.path.getsize(p)
                    rows += pq.ParquetFile(p).metadata.num_rows
    return {"graph.rows_written": rows, "graph.bytes_written": size,
            "graph.files_written": files}


def _state_probes(graph_dir: str, tracer: Tracer) -> dict[str, float]:
    """Manifest scan of the finished graph, and a rerun of the graph
    materialization over it, which must be a no-op."""
    import ray.data
    from newsagency_classification_ray.pipelines import graph
    from newsagency_classification_ray.state.manifest import incomplete_partitions

    from .check import TABLES

    with tracer.span("state.manifest_scan"):
        todo = [k for t in TABLES
                for k in incomplete_partitions(os.path.join(graph_dir, t),
                                               sorted(os.listdir(os.path.join(graph_dir, t))))]
    if todo:
        raise AssertionError(f"incomplete partitions after the op: {todo}")
    empty = ray.data.from_items([{"x": 0}])
    parts = len(os.listdir(os.path.join(graph_dir, "nodes")))
    with tracer.span("graph.resume_noop"):
        s = graph.materialize_graph(empty, empty, empty, graph_dir,
                                    num_partitions=parts)
    if any(v["written"] for v in s.values()):
        raise AssertionError("rerun over a complete graph rewrote partitions")
    return {"state.manifest_scan_s": tracer.wall("state.manifest_scan"),
            "graph.resume_noop_s": tracer.wall("graph.resume_noop")}


def traced_build(wl, tracer: Tracer) -> dict[str, float]:
    """kg_build / kg_model_bound: ``cli.run_pipeline`` layer by layer."""
    from newsagency_classification_ray.pipelines import kg

    cfg = wl.cfg
    run = TracedOp(tracer)
    with tracer.span("op"):
        pages = run.materialize("pages.read", kg.read_pages(cfg.input_path))
        mentions = run.materialize("kg.extract_mentions", kg.extract_mentions(
            pages, tagger_concurrency=cfg.tagger_concurrency,
            linker_concurrency=cfg.linker_concurrency, batch_size=cfg.batch_size,
            dedup=cfg.dedup, model=cfg.model))
        summary = run.aggregates_and_write(mentions, wl.out, cfg.num_partitions,
                                           [cfg.input_path], cfg.salt_buckets)
    tracer.op = 0                       # probes below are not part of the op
    files = wl.corpus.shard_files()
    stages = _stage_self_times(files, cfg)
    # the written mentions table read back through its manifests' file lists
    import ray.data
    from newsagency_classification_ray.state.manifest import partition_data_files

    mdir = os.path.join(wl.out, "mentions")
    written = [f for p in sorted(os.listdir(mdir))
               for f in partition_data_files(os.path.join(mdir, p))]
    run.materialize("state.checkpoint_read", ray.data.read_parquet(written))
    return {
        **stages,
        "pages.read_s": tracer.wall("pages.read"),
        "pages.bytes": sum(map(os.path.getsize, files)),
        "kg.extract_wall_s": tracer.wall("kg.extract_mentions"),
        "kg.extract_overhead_s": tracer.wall("kg.extract_mentions") - _stage_sum(stages),
        "kg.dedup_rows_dropped": stages["tagger.mentions_out"] - mentions.count(),
        "kg.exchanges": run.exchanges,
        "state.shards_reextracted": 0,
        "state.partitions_rewritten": sum(len(v["written"]) for v in summary.values()),
        "state.checkpoint_read_s": tracer.wall("state.checkpoint_read"),
    }


def traced_resume(wl, tracer: Tracer) -> dict[str, float]:
    """kg_resume: ``kg.flagship_resumable`` layer by layer, after the same
    checkpoint and partition loss as the timed op."""
    from newsagency_classification_ray.pipelines import kg

    mdir = os.path.join(wl.workdir, "mentions")
    run = TracedOp(tracer)
    with tracer.span("op"):
        with tracer.span("state.extract_checkpointed"):
            s1 = kg.extract_mentions_checkpointed(wl.corpus.path, mdir, model=wl.model)
        mentions = run.materialize("state.checkpoint_read",
                                   kg.read_checkpointed_mentions(mdir))
        summary = run.aggregates_and_write(mentions, wl.graph_dir(), wl.partitions,
                                           [wl.corpus.path])
    tracer.op = 0                       # probes below are not part of the op
    wl.check_summary({"extract": s1, "graph": summary})
    # the stages' share of the op: the pages of the lost shards only
    files = wl.lost_shard_files()
    run.materialize("pages.read", kg.read_pages(files))
    stages = _stage_self_times(files, wl.cfg)
    checkpointed = 0
    for shard in os.listdir(mdir):
        with open(os.path.join(mdir, shard, "_manifest.json")) as f:
            checkpointed += json.load(f)["row_count"]
    return {
        **stages,
        "pages.read_s": tracer.wall("pages.read"),
        "pages.bytes": sum(map(os.path.getsize, files)),
        "kg.extract_wall_s": tracer.wall("state.extract_checkpointed"),
        "kg.extract_overhead_s": (tracer.wall("state.extract_checkpointed")
                                  - _stage_sum(stages)),
        "kg.dedup_rows_dropped": checkpointed - mentions.count(),
        "kg.exchanges": run.exchanges,
        "state.shards_reextracted": len(s1["written"]),
        "state.partitions_rewritten": sum(len(v["written"]) for v in summary.values()),
        "state.checkpoint_read_s": tracer.wall("state.checkpoint_read"),
    }


def _stage_sum(stages: dict[str, float]) -> float:
    return stages["extract.self_s"] + stages["tagger.self_s"] + stages["linker.self_s"]


def traced_run(wl, work_dir: str) -> dict[str, float]:
    """One plain op, one traced op (checked against the reference digest),
    then the in-process and state probes. Raises if either op fails."""
    from .check import digest

    tracer = Tracer()
    plain = wl.op()
    tracer.op = 1
    wl.prepare()
    layers = wl.traced(tracer)
    traced = tracer.wall("op")
    if digest(wl.graph_dir()) != wl.reference:
        raise AssertionError("traced op wrote a different graph")
    metrics = {
        **layers,
        "kg.triples_s": tracer.wall("kg.triples"),
        "kg.canonicalize_s": tracer.wall("kg.canonicalize"),
        "kg.cooccurrence_s": tracer.wall("kg.cooccurrence"),
        "kg.nodes_edges_s": tracer.wall("kg.nodes_edges"),
        **{f"graph.write_s.{t}": tracer.wall(f"graph.write.{t}")
           for t in ("nodes", "edges", "mentions")},
        **_output_stats(wl.graph_dir()),
        **_state_probes(wl.graph_dir(), tracer),
        "tagger.op_share": layers["tagger.self_s"] / plain,
        "trace.op_wall_s": traced,
        "trace.op_self_s": tracer.self_time("op"),
        "trace.overhead_s": traced - plain,
    }
    tracer.dump(os.path.join(work_dir, "spans.json"))
    return metrics
