"""Seeded pages corpus for the benchmark, with its own ground truth.

Same schema and corpus properties as ``sources/pages.py`` (the program's
test-fixture generator), but driven by the benchmark's ``--seed`` and written
into the benchmark's work directory, never a shared cache:

* ``lang`` in {fr, de, en, lb} at 40/30/20/10 %; only fr/de pass the gate;
* 12 % of pages carry 1, 2 or 3 agency mentions (4 % each), agency
  Zipf-ranked (Reuters and Havas head), surfaces drawn from the alias
  vocabulary incl. OCR variants;
* 20 % html only (``text`` null), 10 % both, the rest text only; html uses
  the ``<body><p>..</p></body>`` wrapping the extractor inverts;
* adversarial rows: empty text, punctuation-only text, one over-long
  sentence whose only alias sits past the 512-token window, and exact
  duplicate pages.

Alongside the table the generator returns what it injected: per page its
text and every mention's article offsets, so outputs can be checked against
the input instead of against another run of the program.
"""

from __future__ import annotations

import datetime
import html as _html
import os
import random
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from newsagency_classification_ray.vocab import ALIAS_VARIANTS, WIKIDATA_IDS

SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.large_string()),
    ("lang", pa.string()),
])

# single word-char tokens only, so a surface is never split by the tokenizer
ALIASES = {c: [a for a in v if a.isalnum()] for c, v in ALIAS_VARIANTS.items()}
ALIASES = {c: v for c, v in ALIASES.items() if v}
RANKED = [c for c in (
    "Reuters", "Havas", "AFP", "Wolff", "Stefani", "ATS-SDA", "AP", "TASS",
    "DNB", "UP-UPI", "Belga", "ANSA", "DPA", "Extel", "Domei", "Europapress",
    "APA", "ANP", "BTA", "CTK", "DDP-DAPD", "Interfax", "Kipa", "PAP",
    "SPK-SMP", "TANJUG", "Telunion", "TT", "Xinhua") if c in ALIASES]
WEIGHTS = [1.0 / (r + 1) ** 1.2 for r in range(len(RANKED))]
HOSTS = [f"news{k}.example.{tld}" for k in range(10) for tld in ("ch", "lu")]
LANGS, LANG_W = ["fr", "de", "en", "lb"], [0.40, 0.30, 0.20, 0.10]
CITIES = ["LONDRES", "PARIS", "BERNE", "ZURICH", "MILAN", "VIENNE", "BERLIN"]
# lowercase filler, disjoint from every alias surface
WORDS = (
    "le la les de des du et dans sur avec pour par une un au aux ce cette "
    "gouvernement conseil canton ville pays marche commerce industrie "
    "politique guerre paix traite accord loi projet peuple nation etat "
    "ministre president armee train ligne route nouvelle journal presse "
    "der die das und in auf mit fur durch eine ein zum zur bericht "
    "regierung kanton stadt land markt handel politik krieg friede vertrag "
    "gesetz volk staat minister zeitung bahn strasse neue").split()


@dataclass
class Corpus:
    """The written corpus plus the generator's ground truth."""

    path: str                                   # directory of shard files
    text: dict[str, str] = field(default_factory=dict)      # url -> article text
    lang: dict[str, str] = field(default_factory=dict)
    # url -> [(l_art, r_art, surface, canonical)] as injected
    mentions: dict[str, list[tuple[int, int, str, str]]] = field(default_factory=dict)
    gated: set[str] = field(default_factory=set)  # urls the tagger must skip

    def expected_mentions(self) -> set[tuple[str, int, int, str, str]]:
        """(url, l_art, r_art, surface, qid) the pipeline must emit once."""
        return {(u, lo, hi, s, WIKIDATA_IDS[c])
                for u, ms in self.mentions.items()
                if self.lang[u] in ("fr", "de") and u not in self.gated
                for lo, hi, s, c in ms}

    def shard_files(self) -> list[str]:
        return sorted(os.path.join(self.path, f) for f in os.listdir(self.path)
                      if f.endswith(".parquet"))


def _sentence(rng: random.Random) -> str:
    ws = [rng.choice(WORDS) for _ in range(rng.randint(6, 12))]
    return ws[0].capitalize() + " " + " ".join(ws[1:]) + "."


def _mention_sentence(rng: random.Random) -> tuple[str, int, str, str]:
    """(sentence, offset of the alias in it, alias, canonical)."""
    canon = rng.choices(RANKED, weights=WEIGHTS, k=1)[0]
    alias = rng.choice(ALIASES[canon])
    kind = rng.randrange(3)
    if kind == 0:
        head = f"{rng.choice(CITIES)}, {rng.randint(1, 28)} ("
        return head + alias + ").", len(head), alias, canon
    if kind == 1:
        head = "Selon une depeche de "
        body = " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 8)))
        return f"{head}{alias}, {body}.", len(head), alias, canon
    head = _sentence(rng)[:-1] + " ("
    return head + alias + ").", len(head), alias, canon


def _wrap_html(text: str, title: str) -> bytes:
    body = "<p>" + "</p><p>".join(_html.escape(text, quote=False).split("\n")) + "</p>"
    return (f"<html><head><title>{_html.escape(title, quote=False)}</title></head>"
            f"<body>{body}</body></html>").encode("utf-8")


def _exact_shares(rng: random.Random, n: int, values: list, shares: list[float]) -> list:
    """``n`` values in exactly the given shares, shuffled: seeds change
    which pages get what, not how many, so every seed's corpus does the
    same amount of work."""
    out: list = []
    for v, w in zip(values, shares):
        out += [v] * round(n * w)
    out = (out + [values[0]] * n)[:n]
    rng.shuffle(out)
    return out


def _page(rng: random.Random, i: int, lang: str, n_mentions: int, form: str,
          truth: Corpus) -> dict:
    host = rng.choice(HOSTS)
    year = rng.randint(1940, 1999)
    month, day = rng.randint(1, 12), rng.randint(1, 28)
    ts = datetime.datetime(year, month, day, rng.randint(0, 23), rng.randint(0, 59))
    slug, mentions, gated = "article", [], False
    if i % 611 == 0:
        text = ""
    elif i % 613 == 0:
        text = "!!! ??? ... ;;; ---"
    elif i % 617 == 0:
        # one sentence of 580+ tokens: its alias lies past the 512-token window
        slug, gated = "long", True
        head = " ".join(rng.choice(WORDS) for _ in range(560)) + " ("
        text = head + "Havas) " + " ".join(rng.choice(WORDS) for _ in range(20)) + "."
        mentions.append((len(head), len(head) + 5, "Havas", "Havas"))
    else:
        sents: list = [_sentence(rng) for _ in range(rng.randint(2, 7))]
        for _ in range(n_mentions):
            sents.insert(rng.randrange(len(sents) + 1), _mention_sentence(rng))
        parts, off = [], 0
        for s in sents:
            if isinstance(s, tuple):
                s, at, alias, canon = s
                mentions.append((off + at, off + at + len(alias), alias, canon))
            parts.append(s)
            off += len(s) + 1
        text = " ".join(parts)
    url = f"https://{host}/{year:04d}/{month:02d}/{day:02d}/{slug}-{i}"
    if form == "html":
        html, out_text = _wrap_html(text, f"page {i}"), None
    elif form == "both":
        html, out_text = _wrap_html(text, f"page {i}"), text
    else:
        html, out_text = None, text
    truth.text[url], truth.lang[url] = text, lang
    if mentions:
        truth.mentions[url] = mentions
    if gated:
        truth.gated.add(url)
    return {"url": url, "warc_ts": ts, "html": html, "text": out_text, "lang": lang}


def generate(path: str, pages: int, shards: int, seed: int) -> Corpus:
    """Write ``pages`` rows as ``shards`` parquet files under ``path``.

    Every 997th page is an exact copy of the page before it (same url, same
    payload), so duplicates are exact and may straddle a shard boundary.
    """
    os.makedirs(path, exist_ok=True)
    truth = Corpus(path=path)
    bounds = [pages * k // shards for k in range(shards + 1)]
    rng = random.Random(f"perfbench:{seed}")
    # language and mention count drawn jointly, so the mentions that pass
    # the language gate are an exact share too
    mix = [(lang, n) for lang in LANGS for n in range(4)]
    mix_w = [lw * nw for lw in LANG_W for nw in (0.88, 0.04, 0.04, 0.04)]
    page_mix = _exact_shares(rng, pages, mix, mix_w)
    forms = _exact_shares(rng, pages, ["text", "html", "both"], [0.70, 0.20, 0.10])
    prev = None
    for k in range(shards):
        rows = []
        for i in range(bounds[k], bounds[k + 1]):
            prev = dict(prev) if (i and i % 997 == 0) else _page(
                rng, i, *page_mix[i], forms[i], truth)
            rows.append(prev)
        pq.write_table(pa.Table.from_pylist(rows, schema=SCHEMA),
                       os.path.join(path, f"shard-{k:05d}.parquet"))
    return truth
