"""Deadlines, the closed op loop, and memory sampling from outside.

Nothing here knows about Ray or the pipeline, so the deadline behaviour can be
tested with plain Python callables (``test_harness.py``).
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


class OpTimeout(Exception):
    """An op did not finish before its deadline; the session is presumed
    stuck (a Ray execution cannot be cancelled from the calling process)."""


def call_with_deadline(fn: Callable[[], object], seconds: float) -> object:
    """Run ``fn`` in a daemon thread; raise :class:`OpTimeout` if it has not
    returned after ``seconds``. Exceptions from ``fn`` are re-raised here."""
    box: dict[str, object] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller, which re-raises
            box["error"] = e

    t = threading.Thread(target=target, daemon=True, name="perfbench-op")
    t.start()
    t.join(seconds)
    if t.is_alive():
        raise OpTimeout(f"op still running after {seconds:.0f} s")
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box.get("value")


@dataclass
class LoopResult:
    walls: list[float] = field(default_factory=list)   # successful ops only
    attempted: int = 0
    failed: int = 0
    hung: bool = False
    errors: list[str] = field(default_factory=list)


def closed_loop(op: Callable[[], float], seconds: float, op_deadline: float,
                min_ops: int = 1) -> LoopResult:
    """One client, one op at a time, until ``seconds`` have passed and at
    least ``min_ops`` ops were attempted.

    ``op`` returns its own timed wall (set-up and checks around the timed
    call are its business) and raises when its output is wrong. An op that
    raises counts as failed; an op that passes ``op_deadline`` counts as
    failed and ends the loop, since the session it ran in cannot be trusted.
    """
    res = LoopResult()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or res.attempted < min_ops:
        res.attempted += 1
        try:
            res.walls.append(call_with_deadline(op, op_deadline))
        except OpTimeout as e:
            res.failed += 1
            res.hung = True
            res.errors.append(str(e))
            break
        except Exception as e:  # one failed op must not end the run
            res.failed += 1
            res.errors.append(f"{type(e).__name__}: {e}")
    return res


def descendants(root: int | None = None) -> list[int]:
    """PIDs of every live descendant of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _start_time(pid: int) -> str | None:
    """Start time of a live process (tells a reused pid apart); None if it
    is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] in "ZX" else fields[19]


def snapshot() -> dict[int, str]:
    """This process's descendants now. Ray's raylet starts agents that are
    re-parented to init once the raylet exits, so they are found only from a
    snapshot taken while the raylet still runs."""
    return {p: s for p in descendants() if (s := _start_time(p)) is not None}


def kill_all(known: dict[int, str], grace: float = 3.0) -> None:
    """SIGTERM every process of ``known`` still alive and every current
    descendant, SIGKILL what is left after ``grace``, and wait until all are
    gone (direct children are reaped)."""
    def alive() -> list[int]:
        cur = snapshot()
        cur.update({p: s for p, s in known.items() if _start_time(p) == s})
        return list(cur)

    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = alive()
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + grace
        while time.monotonic() < end and alive():
            _reap()
            time.sleep(0.05)
    _reap()


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def settle(quiet: float = 0.5, limit: float = 5.0) -> float:
    """Wait until the set of descendant processes has not changed for
    ``quiet`` seconds (at most ``limit``), so an op does not start while the
    last op's actors are still exiting. Returns the seconds waited."""
    t0 = time.monotonic()
    last, since = set(descendants()), t0
    while time.monotonic() - t0 < limit:
        time.sleep(0.1)
        now = set(descendants())
        if now != last:
            last, since = now, time.monotonic()
        elif time.monotonic() - since >= quiet:
            break
    return time.monotonic() - t0


def pss_kb(pid: int) -> int:
    """Proportional set size of one process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PssSampler:
    """Background sampler of PSS summed over this process and every
    descendant (the Ray raylet, GCS, object store and workers). PSS splits
    shared pages among their users, so the object store is counted once,
    unlike summed RSS. One sample reads ``smaps_rollup`` of ~15 processes,
    ~35 ms of kernel page-table walks, so the period is long enough to keep
    the sampler's share of a CPU near 3 %."""

    def __init__(self, period: float = 1.0):
        self.period = period
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-pss")

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            total = pss_kb(os.getpid()) + sum(map(pss_kb, descendants()))
            with self._lock:
                self._peak = max(self._peak, total)

    def __enter__(self) -> "PssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5)

    def take_peak_mb(self) -> float:
        """Peak since the last call, in MiB; starts the next window."""
        with self._lock:
            peak, self._peak = self._peak, 0
        return peak / 1024


def median(xs: list[float]) -> float:
    """Median, or 0.0 when no op succeeded (the result must stay valid JSON;
    ``failed == attempted`` then says why)."""
    return statistics.median(xs) if xs else 0.0
