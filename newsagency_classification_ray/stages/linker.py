"""Entity-linker stage (T5): surface form → canonical agency + Wikidata QID.

The reference's linking is a dict lookup keyed on the *predicted class*
(``cli_tagger.py:202-209``); the north-star upgrades it to a surface-form
linker: alias index + normalized-edit-distance scoring so OCR-noisy surfaces
(``Havaas`` → canonical ``Havas``, golden fixture
``tests/na_tagger_out.jsonl``) still resolve.

Warm task stage: ``pipelines.kg`` runs it as a task-based ``map_batches``
through ``stages.warm.warm_stage``, so the alias index (exact map +
per-length buckets for the banded-Levenshtein fallback) is built once per
worker process in ``__init__`` from the broadcast vocabulary (SURVEY.md §2.4
J1 — small side rides with the worker, never a shuffle join), and the
resolved-surface cache carries over between batches and jobs. Per batch the lookup is memoised on the batch's
*unique* surfaces — the surface distribution is extremely Zipfian
(Reuters/Havas head, reference README.md:88-90), so a batch of 10⁴ mentions
typically resolves <10² distinct surfaces.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textproc import edit_distance, normalize_surface
from ..vocab import ALIAS_TO_CANONICAL_NORM, qid_for_label


class LinkerStage:
    """mentions table → + (canonical: string, qid: string, link_score: float32).

    Resolution order (north-star "alias-trie + embedding scores": the trie is
    realized as an exact map + length-bucketed index — equivalent candidate
    generation with better cache behavior than a pointer trie; the embedding
    score is a character-trigram cosine):

    1. exact normalized-alias lookup (score 1.0),
    2. banded Levenshtein over same-length-bucket aliases (OCR noise ≤ 2
       edits, e.g. ``Havaas`` → ``Havas``),
    3. char-trigram embedding cosine against the alias matrix (vectorized
       numpy; catches corruption beyond the edit band, e.g. ``Reuuterss``),
       accepted above ``min_cosine``.
    """

    def __init__(self, max_edit_distance: int = 2, min_cosine: float = 0.55):
        import numpy as np

        self.max_ed = max_edit_distance
        self.min_cosine = min_cosine
        self.exact = dict(ALIAS_TO_CANONICAL_NORM)  # normalized alias -> canonical
        # length-bucketed alias list for the banded-Levenshtein fallback
        self.by_len: dict[int, list[tuple[str, str]]] = {}
        for alias, canon in self.exact.items():
            for ln in range(len(alias) - max_edit_distance, len(alias) + max_edit_distance + 1):
                self.by_len.setdefault(ln, []).append((alias, canon))
        # char-trigram embedding matrix over the alias vocabulary (built once
        # per worker; ~|aliases| × 4096 hashed-trigram dims, L2-normalized)
        self._np = np
        self._dims = 4096
        self._alias_list = list(self.exact.items())
        mat = np.zeros((len(self._alias_list), self._dims), dtype=np.float32)
        for i, (alias, _) in enumerate(self._alias_list):
            for d in self._trigram_ids(alias):
                mat[i, d] += 1.0
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self._alias_mat = mat / norms
        self.cache: dict[str, tuple[str, str, float]] = {}

    def _trigram_ids(self, s: str) -> list[int]:
        import zlib

        padded = f"##{s}##"
        return [zlib.crc32(padded[i:i + 3].encode()) % self._dims
                for i in range(len(padded) - 2)]

    def _embed_score(self, norm: str) -> tuple[str, float] | None:
        np = self._np
        ids = self._trigram_ids(norm)
        if not ids:
            return None
        v = np.zeros(self._dims, dtype=np.float32)
        for d in ids:
            v[d] += 1.0
        v /= np.linalg.norm(v)
        sims = self._alias_mat @ v
        best = int(sims.argmax())
        if float(sims[best]) < self.min_cosine:
            return None
        return self._alias_list[best][1], float(sims[best])

    def resolve(self, surface: str) -> tuple[str, str, float]:
        """→ (canonical name | '', qid | 'NIL', score∈[0,1])."""
        hit = self.cache.get(surface)
        if hit is not None:
            return hit
        norm = normalize_surface(surface)
        out = ("", "NIL", 0.0)
        canon = self.exact.get(norm)
        if canon is not None:
            out = (canon, qid_for_label(canon), 1.0)
        elif norm:
            best, best_d = None, self.max_ed + 1
            for alias, cand in self.by_len.get(len(norm), ()):
                d = edit_distance(norm, alias, self.max_ed)
                if d < best_d:
                    best, best_d = cand, d
                    if d == 1:
                        break
            if best is not None and best_d <= self.max_ed:
                out = (best, qid_for_label(best), 1.0 - best_d / (self.max_ed + 1))
            else:
                emb = self._embed_score(norm)
                if emb is not None:
                    canon2, score = emb
                    out = (canon2, qid_for_label(canon2), round(score, 4))
        if len(self.cache) < 1_000_000:  # bound worker memory on hostile inputs
            self.cache[surface] = out
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        surfaces = batch["surface"]
        uniq = pc.unique(surfaces).to_pylist()
        table = {s: self.resolve(s) for s in uniq}
        vals = [table[s] for s in surfaces.to_pylist()]
        canonical = pa.array([v[0] for v in vals], type=pa.string())
        qid = pa.array([v[1] for v in vals], type=pa.string())
        score = pa.array([v[2] for v in vals], type=pa.float32())
        out = batch
        if "qid" in out.column_names:
            out = out.drop_columns(["qid"])
        return (
            out.append_column("canonical", canonical)
            .append_column("qid", qid)
            .append_column("link_score", score)
        )
