"""newsagency_classification_ray — a Ray-Data-native KG-construction engine.

Brand-new engine with the query/data-processing capabilities of the reference
``impresso/newsagency-classification`` (see /root/reference, SURVEY.md):
mention-detect → entity-link → canonicalize → graph-materialize over
Common-Crawl-style Parquet web pages, expressed Ray-Data-first
(``ray.data.Dataset`` + ``map_batches`` over zero-copy Arrow, stateful stages
built once per warm task worker, salted groupbys for skewed shuffles,
partitioned Parquet sinks with per-partition lineage manifests).

Nothing here calls ``ray.init()`` — the caller (driver / bench.py / test
fixture) owns the Ray session.
"""

__version__ = "0.1.0"
