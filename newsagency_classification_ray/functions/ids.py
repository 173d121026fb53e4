"""Identifier construction / parsing.

* ``mention_id`` — composite ``:``-joined id, reference
  ``cli_tagger.py:220-222`` (``{doc}:{sent}:{l_sent}:{r_sent}:{l_art}:{r_art}:
  newsag:bert_{lang}``), article-offset rewrite per ``postprocess.py:63-65``.
* URL → host — the webtext analogue of the reference's article-id parser
  (``import_data.ipynb`` cell 7; ``impresso_commons_selection.py:23-53``):
  host plays "newspaper".
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def mention_id(
    url: str, sentence_idx: int, l_sent: int, r_sent: int, l_art: int, r_art: int, lang: str
) -> str:
    return f"{url}:{sentence_idx}:{l_sent}:{r_sent}:{l_art}:{r_art}:newsag:bert_{lang}"


def host_of_urls(urls: pa.Array) -> pa.Array:
    """Vectorized ``https://{host}/...`` → ``{host}`` (Arrow kernels only)."""
    stripped = pc.replace_substring_regex(urls, pattern=r"^[a-z]+://", replacement="")
    return pc.replace_substring_regex(stripped, pattern=r"/.*$", replacement="")
