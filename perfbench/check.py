"""Output checks: a canonical digest of the written graph, and an
independent recomputation of its contents from the generated corpus.

The digest is the benchmark's own; the manifests' ``content_hash`` is not
used because it depends on how rows are split into row groups when an int64
column holds nulls (``pandas`` turns such a column into float64 only in the
row groups that contain a null, and hashes the floats).
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from itertools import combinations

import pyarrow.parquet as pq

from .corpus import Corpus

TABLES = ("nodes", "edges", "mentions")


def read_table_rows(table_dir: str) -> tuple[list[str], list[tuple]]:
    """Every row of a partitioned output table, the partition key included.

    Files are read one by one (no dataset discovery), so a stray file in a
    partition is counted, never silently merged or skipped."""
    names: list[str] | None = None
    rows: list[tuple] = []
    for part in sorted(os.listdir(table_dir)):
        pdir = os.path.join(table_dir, part)
        if not os.path.isdir(pdir):
            continue
        for f in sorted(os.listdir(pdir)):
            if not f.endswith(".parquet"):
                continue
            t = pq.read_table(os.path.join(pdir, f))
            cols = sorted(t.column_names)
            if names is None:
                names = cols
            elif cols != names:
                raise ValueError(f"{pdir}/{f}: columns {cols} != {names}")
            values = [t[c].to_pylist() for c in names]
            rows.extend((part, *r) for r in zip(*values))
    return ["part"] + (names or []), rows


def _encode(v) -> str:
    return "\x00" if v is None else "v" + repr(v)


def digest(out_root: str) -> str:
    """sha256 over the sorted, null-explicit rows of nodes, edges, mentions."""
    h = hashlib.sha256()
    for name in TABLES:
        cols, rows = read_table_rows(os.path.join(out_root, name))
        h.update(f"{name}|{','.join(cols)}|{len(rows)}\n".encode())
        for line in sorted("\x1f".join(map(_encode, r)) for r in rows):
            h.update(line.encode())
            h.update(b"\x1e")
    return h.hexdigest()


def _dicts(out_root: str, name: str) -> list[dict]:
    cols, rows = read_table_rows(os.path.join(out_root, name))
    return [dict(zip(cols, r)) for r in rows]


def verify_graph(out_root: str, corpus: Corpus) -> list[str]:
    """Problems found in a written graph; an empty list means correct.

    * mentions: exactly the generator's injected mentions (offsets, surface,
      qid), each once, and ``text[l_art:r_art] == surface`` on the generated
      text;
    * cites_agency edges and article nodes: recomputed from the mentions
      (count and max year per (url, qid));
    * co_occurs_with edges: per (host, year) agency counts, every unordered
      pair, summed over groups (network_analysis.ipynb semantics);
    * agency nodes: mention counts per (canonical, qid)."""
    problems: list[str] = []
    mentions = _dicts(out_root, "mentions")
    edges = _dicts(out_root, "edges")
    nodes = _dicts(out_root, "nodes")

    got = Counter((m["url"], m["l_art"], m["r_art"], m["surface"], m["qid"])
                  for m in mentions)
    want = corpus.expected_mentions()
    dup = sum(n - 1 for n in got.values() if n > 1)
    if dup:
        problems.append(f"{dup} duplicated mention rows")
    if set(got) != want:
        problems.append(f"mentions: {len(set(got) - want)} unexpected, "
                        f"{len(want - set(got))} missing of {len(want)}")
    bad = sum(corpus.text[m["url"]][m["l_art"]:m["r_art"]] != m["surface"]
              for m in mentions if m["url"] in corpus.text)
    if bad:
        problems.append(f"{bad} mentions break text[l_art:r_art] == surface")

    linked = [m for m in mentions if m["qid"] != "NIL"]
    cites: dict[tuple, list] = {}
    for m in linked:
        c = cites.setdefault((m["url"], m["qid"]), [0, m["year"]])
        c[0] += 1
        c[1] = max(c[1], m["year"])
    got_cites = {(e["src"], e["dst"]): [e["weight"], e["year"]]
                 for e in edges if e["predicate"] == "cites_agency"}
    if got_cites != cites:
        problems.append("cites_agency edges differ from the recomputation")

    per_group: dict[tuple, Counter] = {}
    for m in linked:
        per_group.setdefault((m["host"], m["year"]), Counter())[m["qid"]] += 1
    cooc: dict[tuple, list] = {}
    for (_, year), cnt in per_group.items():
        for (qa, na), (qb, nb) in combinations(sorted(cnt.items()), 2):
            c = cooc.setdefault((qa, qb, year), [0, 0, 0])
            c[0] += 1
            c[1] += na
            c[2] += nb
    got_cooc = {(e["src"], e["dst"], e["year"]):
                [e["weight"], e["freq_src"], e["freq_dst"]]
                for e in edges if e["predicate"] == "co_occurs_with"}
    if got_cooc != cooc:
        problems.append("co_occurs_with edges differ from the recomputation")

    articles = Counter()
    for (url, _), (n, _) in cites.items():
        articles[url] += n
    agencies = Counter((m["canonical"], m["qid"]) for m in mentions
                       if m["canonical"] != "")
    want_nodes = {(u, "article", None, u, n) for u, n in articles.items()}
    want_nodes |= {(q if q != "NIL" else f"agency:{c}", "agency", q, c, n)
                   for (c, q), n in agencies.items()}
    got_nodes = Counter((n["node_id"], n["kind"], n["qid"], n["label"],
                         n["n_mentions"]) for n in nodes)
    if set(got_nodes) != want_nodes or max(got_nodes.values(), default=1) > 1:
        problems.append("nodes differ from the recomputation")
    return problems
