"""CLI + config surface — the engine's equivalent of the reference's
``cli_tagger.py --input_dir … --output_dir … --workers W`` entry point
(SURVEY.md §2.10: CLI flags are the reference's config surface; ours is a
``PipelineConfig`` dataclass driving the same flagship dataflow).

Usage (also the ``ray job submit`` payload on a real cluster — see SCALE.md)::

    python -m newsagency_classification_ray.cli run \
        --input /path/to/pages_parquet_dir --output /tmp/kg_out \
        [--model alias|simbert|<hf-checkpoint>] [--tagger-concurrency 24]
        [--linker-concurrency 4]
        [--batch-size 256] [--num-partitions 16] [--salt-buckets 32]
        [--no-dedup] [--gexf /tmp/graph.gexf]

    python -m newsagency_classification_ray.cli eval --input <pages_dir>

Owns a Ray session only when run as a script (guarded init) — library
callers and the graft driver init Ray themselves.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import asdict, dataclass, field


@dataclass
class PipelineConfig:
    """The knobs the reference exposes as CLI flags (main.py:15-166,
    cli_tagger.py:337-379), as one broadcastable config object."""

    input_path: str
    output_root: str
    model: str = "alias"                 # alias | simbert | HF checkpoint path
    tagger_concurrency: int | tuple[int, int] = (2, 16)
    linker_concurrency: int | tuple[int, int] = (1, 4)
    batch_size: int = 256
    dedup: bool | str = True
    salt_buckets: int = 32
    num_partitions: int = 16
    gexf_path: str | None = None


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the flagship end-to-end per config; returns the write summary."""
    from .pipelines import graph, kg

    pages = kg.read_pages(cfg.input_path)
    mentions = kg.extract_mentions(
        pages,
        tagger_concurrency=cfg.tagger_concurrency,
        linker_concurrency=cfg.linker_concurrency,
        batch_size=cfg.batch_size,
        dedup=cfg.dedup,
        model=cfg.model,
    ).materialize()
    trip = kg.triples(mentions).materialize()
    canon = kg.canonicalize(mentions, salt_buckets=cfg.salt_buckets).materialize()
    cooc = kg.cooccurrence_edges(mentions).materialize()
    nodes = kg.build_nodes(canon, trip)
    edges = kg.build_edges(trip, cooc)
    summary = graph.materialize_graph(
        nodes, edges, mentions, cfg.output_root,
        num_partitions=cfg.num_partitions,
        input_fragments=[cfg.input_path],
    )
    if cfg.gexf_path:
        graph.export_gexf(nodes, edges, cfg.gexf_path)
    return {
        "config": {k: str(v) for k, v in asdict(cfg).items()},
        "mentions": mentions.count(),
        "triples": trip.count(),
        "write": {name: {"written": len(s["written"]), "skipped": len(s["skipped"]),
                         "rows": s["row_count"]} for name, s in summary.items()},
    }


def run_eval(input_path: str) -> dict:
    from .eval import linking_conformance

    return linking_conformance(input_path).to_pylist()[0]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="newsagency_classification_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="flagship KG construction")
    r.add_argument("--input", required=True)
    r.add_argument("--output", required=True)
    r.add_argument("--model", default="alias")
    def _positive(v: str) -> int:
        n = int(v)
        if n < 1:
            raise argparse.ArgumentTypeError("concurrency must be >= 1")
        return n

    r.add_argument("--tagger-concurrency", type=_positive, default=None)
    r.add_argument("--linker-concurrency", type=_positive, default=None)
    r.add_argument("--batch-size", type=int, default=256)
    r.add_argument("--num-partitions", type=int, default=16)
    r.add_argument("--salt-buckets", type=int, default=32)
    r.add_argument("--no-dedup", action="store_true")
    r.add_argument("--gexf", default=None)

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
        cfg = PipelineConfig(
            input_path=args.input,
            output_root=args.output,
            model=args.model,
            tagger_concurrency=(args.tagger_concurrency
                                if args.tagger_concurrency is not None else (2, 16)),
            linker_concurrency=(args.linker_concurrency
                                if args.linker_concurrency is not None else (1, 4)),
            batch_size=args.batch_size,
            dedup=not args.no_dedup,
            salt_buckets=args.salt_buckets,
            num_partitions=args.num_partitions,
            gexf_path=args.gexf,
        )
        out = run_pipeline(cfg)
    else:
        out = run_eval(args.input)
    print(json.dumps(out))
    return out


if __name__ == "__main__":
    main()
