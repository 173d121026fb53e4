"""Per-process memo for stateful stages run as plain Ray tasks.

A task-based ``map_batches`` calls a function, not a class, so the stage's
state (compiled regexes, alias index, model weights) would be rebuilt on
every batch. :func:`warm_stage` builds it once per worker process and
reuses it for every later batch and job that lands on the same worker —
the pool's warm task workers play the role an actor pool played, without
reserving CPUs for the lifetime of one execution or killing the workers
when it ends.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def warm_stage(cls, **kwargs):
    """The process's single ``cls(**kwargs)`` instance (kwargs hashable)."""
    return cls(**kwargs)
