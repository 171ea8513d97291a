"""Keyword and sentiment lexicons: bundled defaults, file overrides."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .registry import Dimension
from .schemas import LEXICONS_SCHEMA, bundled_text, load_document


class Lexicons(NamedTuple):
    """Each dimension's keyword set, in ``dimension_words[dim]``, and the two sentiment sets."""

    dimension_words: dict[Dimension, frozenset[str]]
    positive: frozenset[str]
    negative: frozenset[str]


def _normalize(words) -> frozenset[str]:
    cleaned = (word.strip().lower() for word in words)
    return frozenset(word for word in cleaned if word)


def load_lexicons(source: str | Path | dict | None = None) -> Lexicons:
    """Load the bundled lexicons, with per-key overrides from ``source``.

    A source document, validated against ``LEXICONS_SCHEMA``, replaces exactly
    the dimension lists and sentiment lists it names; everything else keeps
    the bundled defaults.
    """
    doc = json.loads(bundled_text("lexicons.json"))
    if source is not None:
        override = load_document(source, "lexicons", LEXICONS_SCHEMA)
        for section in ("dimensions", "sentiment"):
            doc[section].update(override.get(section, {}))
    return Lexicons(
        dimension_words={Dimension(key): _normalize(words) for key, words in doc["dimensions"].items()},
        positive=_normalize(doc["sentiment"]["positive"]),
        negative=_normalize(doc["sentiment"]["negative"]),
    )
