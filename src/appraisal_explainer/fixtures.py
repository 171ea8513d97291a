"""Bundled end-to-end scenario fixtures (simulated case-study data)."""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from .context import Query, UserProfile
from .errors import ConfigError
from .registry import Dimension
from .scoring import Candidate

FIXTURE_NAMES = ("alex", "sarah")


class ScenarioFixture(NamedTuple):
    name: str
    profile: UserProfile
    query: Query
    candidates: tuple[Candidate, ...]
    expected_dominant: frozenset[Dimension]
    notes: str


def fixture_document(name: str) -> dict:
    """Raw fixture JSON document, as shipped."""
    if name not in FIXTURE_NAMES:
        raise ConfigError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    text = resources.files(__package__).joinpath(f"data/fixtures/{name}.json").read_text("utf-8")
    return json.loads(text)


def load_fixture(name: str) -> ScenarioFixture:
    doc = fixture_document(name)
    return ScenarioFixture(
        name=doc["name"],
        profile=UserProfile.from_dict(doc["profile"]),
        query=Query(text=doc["query"]["text"], timestamp=doc["query"].get("timestamp")),
        candidates=tuple(Candidate.from_dict(record) for record in doc["candidates"]),
        expected_dominant=frozenset(map(Dimension, doc["expected_dominant"])),
        notes=doc["notes"],
    )
