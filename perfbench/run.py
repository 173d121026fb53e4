"""KG-construction benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 24 --trace 0

Run from the repository root. Builds the corpus from ``--seed``, starts a
fresh 4-CPU Ray session, runs the set-up (corpus, warm-up op, and for
``kg_resume`` the cold build), then a closed loop of ops (one client, one op
at a time) for ``--seconds``. Every op's written graph is checked against
the reference digest; the reference itself is checked once per run against
an independent recomputation from the generated corpus.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one plain
op, one op decomposed into its layers with a span per call (each layer's
output materialized at its boundary), and the stage callables in-process on
the corpus's Arrow batches, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 only when every op succeeded and every check
passed. See README.md for the workloads and the known defects.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "newsagency_classification_ray"
WORK = os.path.join(ROOT, ".pbw")      # short: Ray's socket paths live under it

# Input sizes: a whole run (set-up + at least three ops) must stay near a
# minute, so the pages counts are small; each one keeps the regime its
# workload exists for (see README.md).
WORKLOADS = {
    "kg_build": {"pages": 16_000, "shards": 16, "model": "alias"},
    "kg_model_bound": {"pages": 3_000, "shards": 16, "model": "simbert"},
    "kg_resume": {"pages": 4_000, "shards": 4, "model": "alias"},
}
# kg_resume loses these two extraction checkpoints and this partition of
# every graph table before each op
LOST_SHARDS = ("shard=shard-00001", "shard=shard-00002")
LOST_PART = "part=1"

RAY_CPUS = 4                      # same as tests/conftest.py
OBJECT_STORE_BYTES = 384 << 20
OP_DEADLINE_S = 60.0              # an op past this is a hang
MIN_OPS = 3                       # per-run median of at least three ops
RUN_DEADLINE_S = 160.0            # whole run, set-up included


def _ray_temp_dir() -> str:
    """Ray's session directory: inside the work dir, unless the checkout's
    path is so long that Ray's unix socket paths under it would pass the
    108-byte limit (session name + ``/sockets/plasma_store`` take ~67)."""
    if len(WORK.encode()) <= 40:
        return WORK
    import tempfile

    return tempfile.mkdtemp(prefix="pbw")


def _start_ray(temp_dir: str) -> None:
    # workers import the package from the checkout whatever the caller's cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, logging_level="ERROR",
             log_to_driver=False, _temp_dir=temp_dir)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


class Workload:
    """Set-up, the timed op, and the traced op of one workload."""

    def __init__(self, corpus, model: str):
        from newsagency_classification_ray.cli import PipelineConfig

        self.corpus, self.model = corpus, model
        self.out = os.path.join(WORK, "out")
        self.cfg = PipelineConfig(corpus.path, self.out, model=model)
        self.reference: str | None = None
        self.triples = 0
        self.problems: list[str] = []

    # -- the op ---------------------------------------------------------
    def graph_dir(self) -> str:
        return self.out

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self) -> dict:
        from newsagency_classification_ray.cli import run_pipeline

        return run_pipeline(self.cfg)

    def count_triples(self, summary: dict) -> int:
        return summary["triples"]

    def check_summary(self, summary: dict) -> None:
        """Raise if the op's own summary shows it did the wrong work."""

    def traced(self, tracer) -> dict:
        from .trace import traced_build

        return traced_build(self, tracer)

    def setup(self) -> None:
        """Warm-up op whose checked output becomes the reference digest."""
        from .check import digest, verify_graph

        self.prepare()
        self.triples = self.count_triples(self.run())
        self.problems = verify_graph(self.graph_dir(), self.corpus)
        self.reference = digest(self.graph_dir())

    def op(self) -> float:
        """One timed op; raises if its output differs from the reference."""
        from .check import digest
        from .harness import settle

        self.prepare()
        gc.collect()        # no GC pause here left over from the last op
        waited = settle()
        if waited > 1:
            print(f"settled {waited:.2f} s", file=sys.stderr)
        t0 = time.perf_counter()
        summary = self.run()
        wall = time.perf_counter() - t0
        self.check_summary(summary)
        got = digest(self.graph_dir())
        if got != self.reference:
            raise AssertionError(f"digest {got[:12]} != reference {self.reference[:12]}")
        return wall


class ResumeWorkload(Workload):
    """Crash recovery: the cold ``flagship_resumable`` build is set-up; each
    op deletes two extraction checkpoints and one partition of every graph
    table, then reruns ``flagship_resumable``."""

    def __init__(self, corpus, model: str):
        super().__init__(corpus, model)
        self.workdir = os.path.join(WORK, "resume")

    def graph_dir(self) -> str:
        return os.path.join(self.workdir, "graph")

    def lost_paths(self) -> list[str]:
        from .check import TABLES

        return ([os.path.join(self.workdir, "mentions", s) for s in LOST_SHARDS]
                + [os.path.join(self.graph_dir(), t, LOST_PART) for t in TABLES])

    def prepare(self) -> None:
        if self.reference is None:       # cold build
            shutil.rmtree(self.workdir, ignore_errors=True)
            return
        for p in self.lost_paths():
            shutil.rmtree(p)

    def run(self) -> dict:
        from newsagency_classification_ray.pipelines import kg

        return kg.flagship_resumable(self.corpus.path, self.workdir, model=self.model)

    def setup(self) -> None:
        super().setup()
        # flagship_resumable's partition count, for the traced op
        self.partitions = len(os.listdir(os.path.join(self.graph_dir(), "nodes")))

    def lost_shard_files(self) -> list[str]:
        return [os.path.join(self.corpus.path, s.split("=", 1)[1] + ".parquet")
                for s in LOST_SHARDS]

    def traced(self, tracer) -> dict:
        from .trace import traced_resume

        return traced_resume(self, tracer)

    def count_triples(self, summary: dict) -> int:
        from .check import read_table_rows

        cols, rows = read_table_rows(os.path.join(self.graph_dir(), "edges"))
        i = cols.index("predicate")
        return sum(r[i] == "cites_agency" for r in rows)

    def check_summary(self, summary: dict) -> None:
        from .check import TABLES

        want = {"extract": sorted(LOST_SHARDS), **{t: [LOST_PART] for t in TABLES}}
        got = {"extract": sorted(summary["extract"]["written"]),
               **{t: summary["graph"][t]["written"] for t in TABLES}}
        if got != want:
            raise AssertionError(f"resume redid {got}, expected {want}")


def run_workload(args) -> dict:
    from .corpus import generate
    from .harness import (PssSampler, call_with_deadline, closed_loop, median,
                          snapshot)

    spec = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    _start_ray(args.ray_temp_dir)
    args.ray_procs.update(snapshot())
    corpus = generate(os.path.join(WORK, "pages"), spec["pages"], spec["shards"],
                      args.seed)
    cls = ResumeWorkload if args.workload == "kg_resume" else Workload
    wl = cls(corpus, spec["model"])
    call_with_deadline(wl.setup, OP_DEADLINE_S)
    setup_s = time.perf_counter() - t0
    print(f"setup: {setup_s:.3f} s", file=sys.stderr)
    if wl.problems:
        print("reference output is wrong: " + "; ".join(wl.problems), file=sys.stderr)

    if args.trace:
        from .trace import traced_run, unit_of

        layers = traced_run(wl, WORK)
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        return _result(not wl.problems, 2, 0, metrics)

    peaks: list[float] = []
    with PssSampler() as pss:
        def op() -> float:
            pss.take_peak_mb()
            wall = wl.op()
            peaks.append(pss.take_peak_mb())
            print(f"op {len(peaks)}: {wall:.3f} s, peak {peaks[-1]:.0f} MiB",
                  file=sys.stderr)
            return wall

        loop = closed_loop(op, args.seconds, OP_DEADLINE_S, min_ops=MIN_OPS)
    for e in loop.errors:
        print(f"failed op: {e}", file=sys.stderr)
    timed = sum(loop.walls)
    metrics = {
        "op_p50_s": (median(loop.walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_pss_mb": (median(peaks), "MiB"),
        "triples_per_s": (wl.triples * len(loop.walls) / timed if timed else 0.0, "1/s"),
    }
    return _result(not wl.problems, loop.attempted, loop.failed, metrics, loop.hung)


def _result(correct: bool, attempted: int, failed: int, metrics: dict,
            hung: bool = False) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "hung": hung}


def _shutdown(deadline: float, started: dict[int, str]) -> None:
    """Stop Ray within ``deadline`` seconds, then kill whatever is left of
    every process the run started (``started``: a snapshot taken right after
    ``ray.init``, plus the descendants now) and wait until each has ended."""
    from .harness import call_with_deadline, kill_all, snapshot

    started = {**started, **snapshot()}

    def stop() -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()
    try:
        call_with_deadline(stop, deadline)
    except Exception as e:  # a wedged session: fall through to the kill
        print(f"ray.shutdown: {e}", file=sys.stderr)
    kill_all(started, grace=1.0)   # ray.shutdown was the graceful stop


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"{PACKAGE}/ not found next to perfbench/: run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)

    from .harness import OpTimeout, call_with_deadline

    args.ray_temp_dir = _ray_temp_dir()
    args.ray_procs = {}
    try:
        result = call_with_deadline(lambda: run_workload(args), RUN_DEADLINE_S)
    except OpTimeout as e:   # the run, or its warm-up op, hung
        print(f"deadline passed: {e}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        _shutdown(8, args.ray_procs)
        if not args.ray_temp_dir.startswith(WORK):
            shutil.rmtree(args.ray_temp_dir, ignore_errors=True)
    hung = result.pop("hung")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    ok = result["correct"] and result["failed"] == 0 and not hung
    return 0 if ok else 1


if __name__ == "__main__":
    if __package__ in (None, ""):
        # run as a script: import the benchmark as the ``perfbench`` package
        sys.path.insert(0, ROOT)
        from perfbench.run import main
    try:
        code = main()
    except KeyboardInterrupt:   # Ray was already stopped by main's finally
        code = 130
    sys.stdout.flush()
    sys.stderr.flush()
    # Ray is stopped and its processes are gone; skip interpreter teardown,
    # which would wait on an op thread still stuck in a hung execution
    os._exit(code)
