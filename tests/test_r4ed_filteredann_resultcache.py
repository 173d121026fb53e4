"""Filtered ANN."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

import newsagency_classification_ray.queries as Q

SF = "/root/testdata/sf0.001"


def test_filtered_ann_matches_bruteforce_and_respects_filter():
    t = Q.QUERIES["embeddings_filtered_ann"](SF).to_pandas()
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    lab = emb.set_index("vec_id").label
    # every returned vector satisfies the predicate
    assert (lab.loc[t.vec_id].to_numpy() == Q._FANN_LABEL).all()
    # exact per-query check against numpy
    mat = np.asarray(list(emb.embedding), dtype=np.float64)
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    ids = emb.vec_id.to_numpy()
    keep = emb.label.to_numpy() == Q._FANN_LABEL
    for qid in Q._ANN_QUERY_IDS:
        q = norm[ids == qid][0]
        col = norm[keep] @ q
        sub_ids = ids[keep]
        col[sub_ids == qid] = -np.inf
        order = np.lexsort((sub_ids, -col))[:Q._ANN_K]
        order = order[np.isfinite(col[order])]
        got = t[t.query_id == qid].sort_values("rank").vec_id.tolist()
        assert got == [int(sub_ids[x]) for x in order]
    # the filter genuinely constrains: differs from unfiltered top-k
    full = Q.QUERIES["ann_topk"](SF).to_pandas()
    assert set(map(tuple, t[["query_id", "vec_id"]].values)) != \
        set(map(tuple, full[["query_id", "vec_id"]].values))

