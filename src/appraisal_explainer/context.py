"""Unified context assembly: profile plus query, reduced to appraisal signals.

Tokenization is deliberately simple (lowercase, split on non-alphanumerics,
no stemming) so every downstream count can be recomputed by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import EmptyQuery
from .lexicons import Lexicons
from .registry import Dimension, Registry

MAX_CONSTRAINT_MINUTES = 24 * 60

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Recognized duration forms: "<N> minutes", "<N> min(s)", "<N>-minute",
# "<N> hour(s)", "<N>-hour", "half an hour" (30), "quarter of an hour" (15)
# and "an hour" (60). First match in text order wins.
_DURATION_RE = re.compile(
    r"(\d+)\s*-?\s*min(?:ute)?s?\b"
    r"|(\d+)\s*-?\s*hours?\b"
    r"|\bhalf\s+an\s+hour\b"
    r"|\bquarter\s+of\s+an\s+hour\b"
    r"|\ban\s+hour\b",
    re.IGNORECASE,
)
_WORDED_MINUTES = {"half": 30, "quarter": 15, "an": 60}


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens of ``text``; punctuation and hyphens split."""
    return _TOKEN_RE.findall(text.lower())


def parse_time_constraint(text: str) -> int | None:
    """First parseable duration in ``text`` as minutes, or None.

    Total function: any input (including empty) yields a result without
    raising. Durations outside 1..1440 minutes are not durations.
    """
    if not text:
        return None
    for match in _DURATION_RE.finditer(text):
        minutes_digits, hours_digits = match.groups()
        digits = minutes_digits or hours_digits
        if digits is None:
            return _WORDED_MINUTES[match.group(0).split()[0].lower()]
        # A nonzero digit before the last four makes the run 10,000 or more:
        # never a duration, so it is skipped without int(), which refuses
        # runs of over 4,300 digits.
        if any(map(int, digits[:-4])):
            continue
        minutes = int(digits[-4:]) * (1 if minutes_digits else 60)
        if 1 <= minutes <= MAX_CONSTRAINT_MINUTES:
            return minutes
    return None


@dataclass(frozen=True)
class SentimentTally:
    """Whole-word sentiment matches; one entry per occurrence."""

    matched_positive: tuple[str, ...] = ()
    matched_negative: tuple[str, ...] = ()

    @property
    def positive_hits(self) -> int:
        return len(self.matched_positive)

    @property
    def negative_hits(self) -> int:
        return len(self.matched_negative)

    @property
    def matched_words(self) -> tuple[str, ...]:
        return self.matched_positive + self.matched_negative

    @property
    def total(self) -> int:
        return self.positive_hits + self.negative_hits


def tally_sentiment(text: str, lexicons: Lexicons) -> SentimentTally:
    """Count positive/negative lexicon words in ``text``, once per occurrence."""
    return tally_sentiment_tokens(tokenize(text), lexicons)


def tally_sentiment_tokens(tokens, lexicons: Lexicons) -> SentimentTally:
    """Count positive/negative lexicon words among ``tokens``, in order."""
    positive: list[str] = []
    negative: list[str] = []
    for token in tokens:
        if token in lexicons.positive:
            positive.append(token)
        elif token in lexicons.negative:
            negative.append(token)
    return SentimentTally(tuple(positive), tuple(negative))


@dataclass(frozen=True)
class UserProfile:
    """Long-term user profile; keyword fields are lowercase-normalized."""

    user_id: str
    description: str = ""
    goals: tuple[str, ...] = ()
    preference_keywords: tuple[str, ...] = ()
    dietary_constraints: tuple[str, ...] = ()
    familiar_items: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("goals", "preference_keywords", "dietary_constraints", "familiar_items"):
            values = tuple(v.strip().lower() for v in getattr(self, name) if v.strip())
            object.__setattr__(self, name, values)

    @classmethod
    def from_dict(cls, record: dict) -> "UserProfile":
        """The profile ``record`` holds, which ``PROFILE_SCHEMA`` has accepted."""
        return cls(
            user_id=record["user_id"],
            description=record.get("description", ""),
            goals=tuple(record.get("goals", ())),
            preference_keywords=tuple(record.get("preference_keywords", ())),
            dietary_constraints=tuple(record.get("dietary_constraints", ())),
            familiar_items=tuple(record.get("familiar_items", ())),
        )

    # Derived once per profile, not once per scored candidate.
    @cached_property
    def unique_goals(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.goals))

    @cached_property
    def goal_tokens(self) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
        """(goal, first token, other tokens) of each unique goal that has tokens."""
        split = ((goal, tokenize(goal)) for goal in self.unique_goals)
        return tuple((goal, tokens[0], tuple(tokens[1:])) for goal, tokens in split if tokens)

    @cached_property
    def unique_constraints(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.dietary_constraints))

    @cached_property
    def familiar_set(self) -> frozenset[str]:
        return frozenset(self.familiar_items)


@dataclass(frozen=True)
class Query:
    """A single natural-language request."""

    text: str
    timestamp: str | None = None

    def __post_init__(self):
        if not self.text or not self.text.strip():
            raise EmptyQuery("query text is empty")


@dataclass(frozen=True)
class SourceHits:
    """Keyword matches for one dimension, deduplicated per source."""

    query: tuple[str, ...] = ()
    profile: tuple[str, ...] = ()


@dataclass(frozen=True)
class UnifiedContext:
    """Everything the salience and scoring stages need about the situation."""

    profile: UserProfile
    query: Query
    composite_text: str
    time_constraint_minutes: int | None
    sentiment: SentimentTally
    keyword_hits: dict[Dimension, SourceHits] = field(default_factory=dict)


def _ordered_matches(tokens: list[str], words: frozenset[str]) -> tuple[str, ...]:
    seen: set[str] = set()
    out: list[str] = []
    for token in tokens:
        if token in words and token not in seen:
            seen.add(token)
            out.append(token)
    return tuple(out)


def _composite_text(profile: UserProfile, query: Query) -> str:
    parts = []
    if profile.description.strip():
        parts.append(profile.description.strip())
    if profile.goals:
        parts.append("Goals: " + ", ".join(profile.goals) + ".")
    parts.append(query.text.strip())
    return " ".join(parts)


def build_unified_context(
    profile: UserProfile,
    query: Query,
    registry: Registry,
    lexicons: Lexicons,
) -> UnifiedContext:
    """Merge profile and query into the signals the pipeline consumes.

    Keyword hits are collected per dimension from two sources: tokens of the
    query text, and tokens of the profile's goals and preference keywords.
    Sentiment is tallied over the query text only (the momentary signal).
    """
    query_tokens = tokenize(query.text)
    profile_tokens: list[str] = []
    for keyword in profile.goals + profile.preference_keywords:
        profile_tokens.extend(tokenize(keyword))
    hits: dict[Dimension, SourceHits] = {}
    for info in registry.dimensions:
        words = lexicons.words_for(info.id)
        hits[info.id] = SourceHits(
            query=_ordered_matches(query_tokens, words),
            profile=_ordered_matches(profile_tokens, words),
        )
    return UnifiedContext(
        profile=profile,
        query=query,
        composite_text=_composite_text(profile, query),
        time_constraint_minutes=parse_time_constraint(query.text),
        sentiment=tally_sentiment(query.text, lexicons),
        keyword_hits=hits,
    )
