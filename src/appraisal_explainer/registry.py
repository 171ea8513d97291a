"""The six appraisal dimensions, their display names and canonical statements.

The dimension set is closed. The bundled registry, shipped as package data,
names each dimension for explanations and gives the canonical statement the
entailment scorer tests as a hypothesis. A source document (for example the
``--registry`` CLI flag) may override either text per dimension, but never
add or remove dimensions.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import NamedTuple


class Dimension(str, Enum):
    """The six appraisal dimensions, in canonical tie-break order."""

    PREDICTABILITY_SURPRISE = "PredictabilitySurprise"
    GOAL_RELEVANCE = "GoalRelevance"
    VALENCE = "Valence"
    URGENCY = "Urgency"
    AGENCY = "Agency"
    NORMATIVE_SIGNIFICANCE = "NormativeSignificance"

    def __str__(self) -> str:  # stable across Python versions
        return self.value

    @property
    def order(self) -> int:
        return _DIMENSION_ORDER[self]


# The dimensions in canonical order; iterating a tuple is far cheaper than
# iterating the Enum class in per-candidate loops.
DIMENSIONS = tuple(Dimension)
_DIMENSION_ORDER = {dim: idx for idx, dim in enumerate(DIMENSIONS)}


class DimensionInfo(NamedTuple):
    id: Dimension
    display_name: str
    canonical_statement: str


class Registry(NamedTuple):
    """One DimensionInfo per dimension, in canonical dimension order."""

    dimensions: tuple[DimensionInfo, ...]

    def display_name(self, dim: Dimension) -> str:
        return self.dimensions[dim.order].display_name


def load_registry(source: str | Path | dict | None = None) -> Registry:
    """The bundled registry, with per-dimension text overrides from ``source``.

    Each override record names a dimension by id and may set its display name
    or canonical statement; a field that is missing or empty keeps the
    bundled value. The document is validated against ``REGISTRY_SCHEMA``.
    """
    # Imported here because schemas imports Dimension from this module.
    from .schemas import REGISTRY_SCHEMA, bundled_text, load_document

    records = {record["id"]: record for record in json.loads(bundled_text("registry.json"))["dimensions"]}
    if source is not None:
        for record in load_document(source, "registry", REGISTRY_SCHEMA).get("dimensions", ()):
            given = {key: value for key, value in record.items() if value}
            records[record["id"]] = {**records[record["id"]], **given}
    return Registry(
        tuple(
            DimensionInfo(dim, records[dim.value]["display_name"], records[dim.value]["canonical_statement"])
            for dim in Dimension
        )
    )
