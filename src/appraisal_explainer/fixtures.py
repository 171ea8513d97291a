"""Bundled end-to-end scenario fixtures (simulated case-study data)."""

from __future__ import annotations

import json
from typing import NamedTuple

from .context import Query, UserProfile
from .errors import ConfigError
from .registry import Dimension
from .schemas import bundled_text
from .scoring import Candidate

FIXTURE_NAMES = ("alex", "sarah")


class ScenarioFixture(NamedTuple):
    name: str
    profile: UserProfile
    query: Query
    candidates: tuple[Candidate, ...]
    expected_dominant: frozenset[Dimension]


def fixture_document(name: str) -> dict:
    """Raw fixture JSON document, as shipped."""
    if name not in FIXTURE_NAMES:
        raise ConfigError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return json.loads(bundled_text(f"fixtures/{name}.json"))


def load_fixture(name: str) -> ScenarioFixture:
    doc = fixture_document(name)
    return ScenarioFixture(
        name=doc["name"],
        profile=UserProfile.from_dict(doc["profile"]),
        query=Query(text=doc["query"]["text"]),
        candidates=tuple(Candidate.from_dict(record) for record in doc["candidates"]),
        expected_dominant=frozenset(map(Dimension, doc["expected_dominant"])),
    )
