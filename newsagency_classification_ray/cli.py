"""CLI + config surface — the engine's equivalent of the reference's
``cli_tagger.py --input_dir … --output_dir … --workers W`` entry point
(SURVEY.md §2.10: CLI flags are the reference's config surface; ours is a
``PipelineConfig`` dataclass driving the same flagship dataflow).

Usage (also the ``ray job submit`` payload on a real cluster — see SCALE.md)::

    python -m newsagency_classification_ray.cli run \
        --input /path/to/pages_parquet_dir --output /tmp/kg_out \
        [--model alias|simbert|<hf-checkpoint>] [--tagger-concurrency 24]
        [--linker-concurrency 4]
        [--batch-size 256] [--num-partitions 16] [--gexf /tmp/graph.gexf]

    python -m newsagency_classification_ray.cli eval --input <pages_dir>

Owns a Ray session only when run as a script (guarded init) — library
callers and the graft driver init Ray themselves.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict, dataclass

from .pipelines import graph, kg


@dataclass
class PipelineConfig:
    """The knobs the reference exposes as CLI flags (main.py:15-166,
    cli_tagger.py:337-379), as one broadcastable config object."""

    input_path: str
    output_root: str
    model: str = "alias"                 # alias | simbert | HF checkpoint path
    tagger_concurrency: int = kg.TAGGER_CONCURRENCY
    linker_concurrency: int = kg.LINKER_CONCURRENCY
    batch_size: int = 256
    # kg.graph_tables always drops duplicate mentions and needs no salt;
    # both fields stay for perfbench/trace.py, which reads them
    dedup: bool = True
    salt_buckets: int = 32
    num_partitions: int = 16
    gexf_path: str | None = None


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the flagship end-to-end per config; returns the run summary.

    ``mentions`` and ``triples`` (the ``cites_agency`` edges) are the rows
    published in the output's manifests, so a rerun that skips every
    partition reports the graph it left. ``write`` holds each table's
    write summary with its wall time, and ``graph_wall_s`` the wall time
    of the three writes, which run at the same time: 4 Ray executions in
    all, the host sort's and one per table."""
    g = kg.graph_tables(kg.extract_mentions(
        kg.read_pages(cfg.input_path),
        tagger_concurrency=cfg.tagger_concurrency,
        linker_concurrency=cfg.linker_concurrency,
        batch_size=cfg.batch_size,
        dedup=False,
        model=cfg.model,
    ))
    t0 = time.perf_counter()
    summary = graph.materialize_graph(
        g["nodes"], g["edges"], g["mentions"], cfg.output_root,
        num_partitions=cfg.num_partitions,
        input_fragments=[cfg.input_path],
    )
    graph_wall_s = time.perf_counter() - t0
    if cfg.gexf_path:
        graph.export_gexf(g["nodes"], g["edges"], cfg.gexf_path)
    return {
        "config": {k: str(v) for k, v in asdict(cfg).items()},
        "mentions": graph._published_rows(os.path.join(cfg.output_root, "mentions")),
        "triples": graph._published_rows(os.path.join(cfg.output_root, "edges"),
                                         "cites_agency"),
        "write": {name: {"written": len(s["written"]), "skipped": len(s["skipped"]),
                         "rows": s["row_count"], "wall_s": s["wall_s"]}
                  for name, s in summary.items()},
        "graph_wall_s": graph_wall_s,
    }


def run_eval(input_path: str) -> dict:
    from .eval import linking_conformance

    return linking_conformance(input_path).to_pylist()[0]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="newsagency_classification_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="flagship KG construction",
                       argument_default=argparse.SUPPRESS)
    r.add_argument("--input", dest="input_path", metavar="INPUT", required=True)
    r.add_argument("--output", dest="output_root", metavar="OUTPUT",
                   required=True)
    r.add_argument("--model")
    def _positive(v: str) -> int:
        n = int(v)
        if n < 1:
            raise argparse.ArgumentTypeError("concurrency must be >= 1")
        return n

    r.add_argument("--tagger-concurrency", type=_positive)
    r.add_argument("--linker-concurrency", type=_positive)
    r.add_argument("--batch-size", type=int)
    r.add_argument("--num-partitions", type=int)
    r.add_argument("--gexf", dest="gexf_path", metavar="GEXF")

    e = sub.add_parser("eval", help="strict linking conformance vs regex gold")
    e.add_argument("--input", required=True)
    return p


def _worker_pythonpath() -> str:
    """The directory holding this package, ahead of any inherited path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)


def main(argv: list[str] | None = None) -> dict:
    args = _build_parser().parse_args(argv)
    import ray

    if not ray.is_initialized():
        # workers import the package from this checkout whatever the cwd
        ray.init(address="local", include_dashboard=False, logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": _worker_pythonpath()}})
    if args.cmd == "run":
        # flags left out keep the PipelineConfig defaults
        cfg = PipelineConfig(**{k: v for k, v in vars(args).items() if k != "cmd"})
        out = run_pipeline(cfg)
    else:
        out = run_eval(args.input)
    print(json.dumps(out))
    return out


if __name__ == "__main__":
    main()
