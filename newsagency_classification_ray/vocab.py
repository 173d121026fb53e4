"""Agency / label vocabularies (broadcast fixtures).

The 29-agency → Wikidata-QID vocabulary mirrors the reference's static dict
(``lib/bert_classification/cli_tagger.py:42-74``, duplicated at
``postprocess.py:21-51`` and ``convert_xmi2clef_format.py:47-77``); keys are
matched case-insensitively (the reference lower-cases at ``cli_tagger.py:74``).
``Europapress`` deliberately maps to ``NIL``; ``unk`` / ``articleauthor``
labels are never linked (``cli_tagger.py:203-209``).

These are *small sides*: they ride into every stage as plain dict constants
captured in the ``map_batches`` callable (or ``ray.put`` once for larger
derived structures like the alias index) — never via a shuffle join
(SURVEY.md §2.4 J1).
"""

from __future__ import annotations

# Canonical agency name -> Wikidata QID (reference cli_tagger.py:42-74).
WIKIDATA_IDS: dict[str, str] = {
    "AFP": "Q40464",
    "ANP": "Q966898",
    "ANSA": "Q392934",
    "AP": "Q40469",
    "APA": "Q680662",
    "ATS-SDA": "Q430109",
    "Belga": "Q815453",
    "BTA": "Q2031809",
    "CTK": "Q341118",
    "DDP-DAPD": "Q265330",
    "DNB": "Q1205856",
    "Domei": "Q2913752",
    "DPA": "Q312653",
    "Europapress": "NIL",
    "Extel": "Q1525848",
    "Havas": "Q2826560",
    "Interfax": "Q379271",
    "Kipa": "Q1522416",
    "PAP": "Q1484980",
    "Reuters": "Q130879",
    "SPK-SMP": "Q2256560",
    "Stefani": "Q1415690",
    "TANJUG": "Q371267",
    "TASS": "Q223799",
    "Telunion": "Q3517301",
    "TT": "Q1312158",
    "UP-UPI": "Q493845",
    "Wolff": "Q552226",
    "Xinhua": "Q204839",
}

# lower-cased lookup, as the reference applies it (cli_tagger.py:74)
WIKIDATA_IDS_LOWER: dict[str, str] = {k.lower(): v for k, v in WIKIDATA_IDS.items()}

# Fine-label prefix used by the reference label space
# (lib/bert_classification/data/label_map.json; SURVEY.md §1 "Label space").
FINE_LABEL_PREFIX = "org.ent.pressagency."

# Alias surface forms per canonical agency. Beyond the canonical name this
# includes the OCR-noisy / historical variants the entity linker must resolve
# (golden fixture: surface "Havaas" → canonical "Havas",
# reference tests/na_tagger_in.jsonl ↔ na_tagger_out.jsonl), modeled on the
# corruption patterns in helpers.py:55-69 (Levenshtein QA) and
# retokenization.py:69-141 (hyphen/apostrophe splits).
ALIAS_VARIANTS: dict[str, list[str]] = {
    "AFP": ["AFP", "A.F.P"],
    "ANP": ["ANP"],
    "ANSA": ["ANSA", "Ansa"],
    "AP": ["AP"],
    "APA": ["APA"],
    "ATS-SDA": ["ATS", "SDA", "ATB"],  # ATB→ATS typo fix, cli_tagger.py:191-199
    "Belga": ["Belga", "BELGA"],
    "BTA": ["BTA"],
    "CTK": ["CTK"],
    "DDP-DAPD": ["DDP", "DAPD"],
    "DNB": ["DNB"],
    "Domei": ["Domei", "Domci"],
    "DPA": ["DPA", "dpa"],
    "Europapress": ["Europapress"],
    "Extel": ["Extel"],
    "Havas": ["Havas", "Havaas", "Havas.", "HAVAS", "Hayas"],
    "Interfax": ["Interfax"],
    "Kipa": ["Kipa", "KIPA"],
    "PAP": ["PAP"],
    "Reuters": ["Reuters", "Reuter", "Beuter", "Beuters", "REUTERS"],
    "SPK-SMP": ["SPK", "SMP"],
    "Stefani": ["Stefani", "Stefanl"],
    "TANJUG": ["Tanjug", "TANJUG"],
    "TASS": ["TASS", "Tass"],
    "Telunion": ["Telunion"],
    "TT": ["TT"],
    "UP-UPI": ["UPI", "UP"],
    "Wolff": ["Wolff", "Wolf", "WOLFF", "Wolffs"],
    "Xinhua": ["Xinhua"],
}

# Flat alias surface -> canonical agency name. Matching is done on the
# raw token surface (exact) then on a normalized form; see stages/linker.py.
ALIAS_TO_CANONICAL: dict[str, str] = {
    alias: canon for canon, aliases in ALIAS_VARIANTS.items() for alias in aliases
}

# Normalized (casefolded, dot-stripped) alias -> canonical.
ALIAS_TO_CANONICAL_NORM: dict[str, str] = {
    alias.lower().rstrip("."): canon
    for canon, aliases in ALIAS_VARIANTS.items()
    for alias in aliases
}


# Agency existence spans (start_year, end_year) — the small dimension table
# behind the existence-span filter (SURVEY.md §2.2 M16,
# network_analysis.ipynb cells 7-9: mentions outside an agency's lifetime are
# dropped before graph analysis). Deterministic engine fixture loosely based
# on the agencies' public founding/merger dates; broadcast, never shuffled.
AGENCY_EXISTENCE: dict[str, tuple[int, int]] = {
    "AFP": (1944, 2999), "ANP": (1934, 2999), "ANSA": (1945, 2999),
    "AP": (1846, 2999), "APA": (1946, 2999), "ATS-SDA": (1894, 2999),
    "Belga": (1920, 2999), "BTA": (1898, 2999), "CTK": (1918, 2999),
    "DDP-DAPD": (1949, 2012), "DNB": (1933, 1945), "Domei": (1936, 1945),
    "DPA": (1949, 2999), "Europapress": (1953, 2999), "Extel": (1872, 2008),
    "Havas": (1835, 1944), "Interfax": (1989, 2999), "Kipa": (1917, 2999),
    "PAP": (1944, 2999), "Reuters": (1851, 2999), "SPK-SMP": (1917, 1999),
    "Stefani": (1853, 1945), "TANJUG": (1943, 2999), "TASS": (1925, 2999),
    "Telunion": (1913, 1933), "TT": (1921, 2999), "UP-UPI": (1907, 1999),
    "Wolff": (1849, 1934), "Xinhua": (1931, 2999),
}


def qid_for_label(short_label: str) -> str:
    """QID lookup with the reference's exclusion semantics (cli_tagger.py:202-209).

    ``articleauthor`` / ``unk`` labels are never linked; unknown labels → NIL.
    """
    if "articleauthor" in short_label or "unk" in short_label:
        return "NIL"
    return WIKIDATA_IDS_LOWER.get(short_label.lower(), "NIL")
