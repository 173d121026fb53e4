"""CLI / PipelineConfig surface (SURVEY.md §2.10)."""

import os
from dataclasses import asdict

from newsagency_classification_ray.cli import PipelineConfig, main, run_pipeline
from newsagency_classification_ray.sources.pages import ensure_pages


def _published_on_disk(root: str) -> tuple[int, int]:
    """Mention rows and ``cites_agency`` edges in the files the manifests
    of ``root`` name."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from newsagency_classification_ray.state.manifest import partition_data_files

    def files(table):
        return [f for pdir in sorted(os.listdir(os.path.join(root, table)))
                for f in partition_data_files(os.path.join(root, table, pdir))]

    mentions = sum(pq.ParquetFile(f).metadata.num_rows for f in files("mentions"))
    cites = sum(pc.sum(pc.equal(pq.read_table(f, columns=["predicate"])["predicate"],
                                "cites_agency")).as_py() or 0
                for f in files("edges"))
    return mentions, cites


def test_run_pipeline_end_to_end(tmp_path, ray_session):
    """``mentions`` and ``triples`` are what the manifests publish: equal
    to the files on disk after a cold run, after a rerun that skips every
    partition, and after one over edges manifests written before
    ``rows_by_predicate``, which are counted from their files."""
    import json

    p = ensure_pages("/root/testdata/sf0.001")
    root = os.path.join(tmp_path, "kg")
    out = run_pipeline(PipelineConfig(
        input_path=p, output_root=root,
        num_partitions=4, gexf_path=os.path.join(tmp_path, "g.gexf"),
    ))
    assert out["mentions"] == 371 and out["triples"] == 330
    assert (out["mentions"], out["triples"]) == _published_on_disk(root)
    assert out["write"]["nodes"]["rows"] == 212
    # the three writes overlap
    assert sum(v["wall_s"] for v in out["write"].values()) > out["graph_wall_s"]
    assert os.path.exists(os.path.join(tmp_path, "g.gexf"))
    for table in ("nodes", "edges", "mentions"):
        for k in range(4):
            assert os.path.exists(
                os.path.join(tmp_path, "kg", table, f"part={k}", "_manifest.json")
            )
    # rerun resumes: nothing rewritten, the same counts
    cfg = PipelineConfig(input_path=p, output_root=root, num_partitions=4)
    again = run_pipeline(cfg)
    assert all(v["written"] == 0 for v in again["write"].values())
    assert (again["mentions"], again["triples"]) == (371, 330)
    for k in range(4):
        path = os.path.join(root, "edges", f"part={k}", "_manifest.json")
        with open(path) as f:
            m = json.load(f)
        del m["rows_by_predicate"]
        with open(path, "w") as f:
            json.dump(m, f)
    again = run_pipeline(cfg)
    assert all(v["written"] == 0 for v in again["write"].values())
    assert (again["mentions"], again["triples"]) == (371, 330)


def test_run_pipeline_graph_path_has_three_exchanges(tmp_path, monkeypatch):
    """The plans run_pipeline executes hold 3 all-to-all exchanges in all:
    the host sort and the node and edge merges, whose sorted output the
    writes keep as it is. Every plan goes through ``materialize`` (writes
    included) or ``count``. They run as 4 executions: the host sort's,
    then one ``write_datasink`` per table; nothing is executed only to be
    counted."""
    from ray.data import Dataset
    from ray.data._internal.execution.streaming_executor import StreamingExecutor
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll)

    def exchanges(ds) -> int:
        n, todo = 0, [ds._logical_plan.dag]
        while todo:
            op = todo.pop()
            n += isinstance(op, AbstractAllToAll)
            todo.extend(op.input_dependencies)
        return n

    seen, executions, writes = [], [], []
    for name in ("materialize", "count"):
        def counted(self, *args, _real=getattr(Dataset, name), **kwargs):
            seen.append(exchanges(self))
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(Dataset, name, counted)

    def executed(self, *args, _real=StreamingExecutor.execute, **kwargs):
        executions.append(1)
        return _real(self, *args, **kwargs)

    def written(self, *args, _real=Dataset.write_datasink, **kwargs):
        writes.append(1)
        return _real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", executed)
    monkeypatch.setattr(Dataset, "write_datasink", written)
    import pyarrow.parquet as pq

    from newsagency_classification_ray.sources.pages import gen_pages_table

    pages = os.path.join(tmp_path, "pages.parquet")
    pq.write_table(gen_pages_table(600), pages)
    out = run_pipeline(PipelineConfig(
        input_path=pages, output_root=os.path.join(tmp_path, "kg"), num_partitions=4))
    assert out["triples"] > 0
    assert sum(seen) == 3, seen
    assert (len(executions), len(writes)) == (4, 3)


def test_cli_eval_subcommand(ray_session, capsys):
    p = ensure_pages("/root/testdata/sf0.001")
    out = main(["eval", "--input", p])
    assert out["precision"] == 1.0 and out["recall"] >= 0.95


_CLI_AS_MODULE = """
import runpy, sys
sys.path.insert(0, sys.argv.pop(1))   # the checkout, for this process only
runpy.run_module("newsagency_classification_ray.cli", run_name="__main__")
"""


def test_cli_runs_from_another_working_directory(tmp_path):
    """``python -m newsagency_classification_ray.cli run`` started outside
    the checkout, with the package importable by the driver only (no
    ``PYTHONPATH``): the CLI's Ray session must hand the package's location
    to its workers, or their first task fails to import it."""
    import json
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = ensure_pages("sf0.001")  # scale factor from the name
    cwd = tmp_path / "elsewhere"
    cwd.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_AS_MODULE, root, "run", "--input", p,
         "--output", "kg", "--num-partitions", "2"],
        capture_output=True, text=True, timeout=120, env=env, cwd=str(cwd))
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["mentions"] == 371 and out["triples"] == 330
    assert out["write"]["nodes"]["rows"] == 212
    # flags left out take the PipelineConfig defaults, not CLI copies of them
    want = PipelineConfig(input_path=p, output_root="kg", num_partitions=2)
    assert out["config"] == {k: str(v) for k, v in asdict(want).items()}
    assert os.path.exists(cwd / "kg" / "nodes" / "part=0" / "_manifest.json")


def test_graph_composed_and_published_once():
    """The graph is composed once (``kg.graph_tables``) and published by
    one writer (``graph._write_and_publish``): outside their definitions,
    nothing in the package, ``__ray_entry__.py`` or ``scripts/`` calls
    ``build_nodes``/``build_edges`` (kept as the tests' reference
    composition), and nothing but that writer and ``state/manifest.py``
    itself (compaction republishes) calls ``write_manifest``."""
    import ast
    import glob

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = (glob.glob(os.path.join(root, "newsagency_classification_ray", "**", "*.py"),
                       recursive=True)
             + [os.path.join(root, "__ray_entry__.py")]
             + glob.glob(os.path.join(root, "scripts", "*.py")))
    composed, published = [], []
    for path in files:
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        stack = [(tree, None)]
        while stack:
            node, fn = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in ("build_nodes", "build_edges"):
                    composed.append(f"{rel}:{node.lineno}")
                elif name == "write_manifest":
                    published.append((rel, fn))
            stack.extend((c, fn) for c in ast.iter_child_nodes(node))
    published = [p for p in published
                 if p[0] != "newsagency_classification_ray/state/manifest.py"]
    writer = ("newsagency_classification_ray/pipelines/graph.py", "_write_and_publish")
    assert (composed, published) == ([], [writer])
