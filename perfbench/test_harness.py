"""Tests of the benchmark's own deadline handling (no Ray needed).

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from perfbench.harness import (OpTimeout, call_with_deadline, closed_loop,
                               descendants, kill_all, snapshot)


def test_call_with_deadline_returns_value_and_reraises():
    assert call_with_deadline(lambda: 7, 5) == 7
    with pytest.raises(ZeroDivisionError):
        call_with_deadline(lambda: 1 / 0, 5)


def test_hung_run_raises_within_its_deadline():
    release = threading.Event()
    t0 = time.perf_counter()
    with pytest.raises(OpTimeout):
        call_with_deadline(release.wait, 0.3)
    assert time.perf_counter() - t0 < 1.0
    release.set()


def test_hung_op_is_counted_failed_and_loop_ends_within_deadline():
    release = threading.Event()
    calls = []

    def op() -> float:
        calls.append(1)
        if len(calls) == 3:
            release.wait()          # a stuck execution: never returns
        return 0.01

    t0 = time.perf_counter()
    res = closed_loop(op, seconds=60, op_deadline=0.5)
    elapsed = time.perf_counter() - t0
    release.set()
    assert res.hung
    assert (res.attempted, res.failed, len(res.walls)) == (3, 1, 2)
    assert elapsed < 2.0


def test_failing_op_counts_and_loop_goes_on():
    n = []

    def op() -> float:
        n.append(1)
        if len(n) % 2:
            raise AssertionError("digest differs")
        return 0.01

    res = closed_loop(op, seconds=0.2, op_deadline=5, min_ops=4)
    assert not res.hung
    assert res.attempted >= 4
    assert res.failed == (res.attempted + 1) // 2
    assert len(res.walls) == res.attempted - res.failed


def test_kill_all_stops_children_and_orphaned_grandchildren():
    """A grandchild whose parent died is re-parented to init (as Ray's agents
    are when the raylet exits); the snapshot taken before still finds it."""
    spawn = ("import subprocess, sys, time; "
             "g = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(600)']); "
             "print(g.pid, flush=True); time.sleep(600)")
    child = subprocess.Popen([sys.executable, "-c", spawn], stdout=subprocess.PIPE,
                             text=True)
    grandchild = int(child.stdout.readline())
    try:
        before = snapshot()
        assert {child.pid, grandchild} <= set(before)
        child.kill()
        child.wait()
        assert grandchild not in descendants()      # orphaned
        t0 = time.perf_counter()
        kill_all(before, grace=2)
        assert time.perf_counter() - t0 < 5
        assert not os.path.exists(f"/proc/{grandchild}") or \
            open(f"/proc/{grandchild}/stat").read().rsplit(")", 1)[1].split()[0] == "Z"
    finally:
        child.stdout.close()
        if child.poll() is None:
            child.kill()
            child.wait()


def test_run_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    """With only the benchmark present (no package next to it) the command
    fails fast and prints no result line."""
    import shutil
    from pathlib import Path

    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "kg_build", "--seed", "1", "--seconds", "1"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert "{" not in p.stdout
