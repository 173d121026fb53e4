"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline on /root/testdata/sf0.001's
synthetic pages corpus (BASELINE.json input_hint shape) and returns the
triples Dataset. ``queries()`` / ``oracle_sql()`` expose every implemented
operator pipeline (SURVEY.md §2 + training-data extras) with DuckDB oracles
where SQL-expressible. ``queries()`` returns the registry's own callables:
every call runs the engine, nothing is cached.

Ray is initialised by the driver BEFORE this module is imported: nothing
below calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    from newsagency_classification_ray.pipelines import kg
    from newsagency_classification_ray.sources.pages import ensure_pages

    path = ensure_pages("/root/testdata/sf0.001")
    pages = kg.read_pages(path)
    mentions = kg.extract_mentions(pages)
    return kg.triples(mentions)


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2,
    uncached."""
    from newsagency_classification_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL per query (omitted ⇒ rows-only check)."""
    from newsagency_classification_ray.queries import oracles

    return oracles()
