"""Unified context assembly: profile plus query, reduced to appraisal signals.

Tokenization is deliberately simple (lowercase, split on non-alphanumerics,
no stemming) so every downstream count can be recomputed by hand.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import EmptyQuery
from .lexicons import Lexicons
from .registry import Dimension, Registry

MAX_CONSTRAINT_MINUTES = 24 * 60

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Recognized duration forms: "<N> minutes", "<N> min(s)", "<N>-minute",
# "<N> hour(s)", "<N>-hour", "half an hour" (30), "quarter of an hour" (15)
# and "an hour" (60). <N> may have decimals, rounded down to whole minutes, as
# prep times are: "1.5 hours" is 90 and "2.5 min" is 2. An amount of hours or
# "an hour" may go on with whole minutes or a half, as one compound duration:
# "1 hour 30 minutes" and "an hour and a half" are 90, "1 hour and 15 min" is
# 75. First match in text order wins, and a match starts only where a digit
# run starts, so a long run that is no duration is scanned once.
_DURATION_RE = re.compile(
    r"(?:(?<!\d)(\d+)(?:\.(\d+))?\s*-?\s*hours?\b|\ban\s+hour\b)"
    r"(?:\s+(?:and\s+)?(\d+)\s*-?\s*min(?:ute)?s?\b|\s+and\s+(a)\s+half\b)?"
    r"|(?<!\d)(\d+)(?:\.\d+)?\s*-?\s*min(?:ute)?s?\b"
    r"|\bhalf\s+an\s+hour\b"
    r"|\bquarter\s+of\s+an\s+hour\b",
    re.IGNORECASE,
)
_WORDED_MINUTES = {"half": 30, "quarter": 15, "an": 60}


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens of ``text``; punctuation and hyphens split."""
    return _TOKEN_RE.findall(text.lower())


def minutes_text(minutes: int) -> str:
    """An amount of minutes in words: "1 minute", "30 minutes"."""
    return f"{minutes} minute" if minutes == 1 else f"{minutes} minutes"


def parse_time_constraint(text: str) -> int | None:
    """First parseable duration in ``text`` as minutes, or None.

    Total function: any input (including empty) yields a result without
    raising. Durations outside 1..1440 minutes are not durations.
    """
    if not text:
        return None
    for match in _DURATION_RE.finditer(text):
        hours, fraction, tail, half, amount = match.groups()
        # A nonzero digit before the last four makes a run 10,000 or more:
        # never part of a duration, so it is skipped without int(), which
        # refuses runs of over 4,300 digits.
        if any(run and any(map(int, run[:-4])) for run in (hours, tail, amount)):
            continue
        if hours is not None:
            minutes = int(hours[-4:]) * 60
        elif amount is not None:
            minutes = int(amount[-4:])  # a fraction of a minute is dropped
        else:
            minutes = _WORDED_MINUTES[match.group(0).split()[0].lower()]
        if fraction:  # of an hour: exact at any length; imported only for an amount with decimals
            from decimal import Context, Decimal
            minutes += int(Context(prec=len(fraction) + 2).multiply(Decimal("0." + fraction), 60))
        if tail is not None:
            minutes += int(tail[-4:])
        elif half is not None:
            minutes += 30
        if 1 <= minutes <= MAX_CONSTRAINT_MINUTES:
            return minutes
    return None


class Immutable:
    """A record whose ``__init__`` sets its fields once: assigning or deleting one raises.

    A subclass's ``__init__`` stores its fields straight into the instance
    dict, in constructor order. ``fields()`` reads them back from there, so
    ``==``, ``hash`` and ``repr`` follow the constructor with no list of
    names to keep in step. A per-instance cache is valid because the fields
    never change. It takes one form: a slot whose name starts with ``_``,
    which ``__init__`` sets to None after the fields, so that all instances
    share one table of keys and ``fields()`` leaves it out, and which first
    use fills with ``object.__setattr__``, bypassing ``__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def fields(self) -> dict:
        """The fields by name, in constructor order, without the cache slots."""
        return {name: value for name, value in self.__dict__.items() if name[0] != "_"}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.fields() == other.fields()

    def __hash__(self):
        return hash(tuple(self.fields().values()))

    def __repr__(self):
        return type(self).__name__ + repr(tuple(self.fields().values()))


class SentimentTally(NamedTuple):
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


def _keywords(values) -> tuple[str, ...]:
    """The stripped, lower-cased ``values`` that are not blank, in order."""
    return tuple(value.strip().lower() for value in values if value.strip())


class UserProfile(Immutable):
    """Long-term user profile; keyword fields are lowercase-normalized, goals and constraints deduplicated."""

    def __init__(
        self,
        user_id: str,
        description: str = "",
        goals: tuple[str, ...] = (),
        preference_keywords: tuple[str, ...] = (),
        dietary_constraints: tuple[str, ...] = (),
        familiar_items: tuple[str, ...] = (),
    ):
        fields = self.__dict__
        fields["user_id"] = user_id
        fields["description"] = description
        fields["goals"] = tuple(dict.fromkeys(_keywords(goals)))
        fields["preference_keywords"] = _keywords(preference_keywords)
        fields["dietary_constraints"] = tuple(dict.fromkeys(_keywords(dietary_constraints)))
        fields["familiar_items"] = _keywords(familiar_items)

    @classmethod
    def from_dict(cls, record: dict) -> "UserProfile":
        """The profile ``record`` holds, which ``PROFILE_SCHEMA`` has accepted.

        ``history_queries`` is accepted for compatibility and not kept: no stage reads it.
        """
        return cls(**{key: value for key, value in record.items() if key != "history_queries"})


class Query(Immutable):
    """A single natural-language request."""

    def __init__(self, text: str):
        if not text or not text.strip():
            raise EmptyQuery("query text is empty")
        self.__dict__["text"] = text


class SourceHits(NamedTuple):
    """Keyword matches for one dimension, deduplicated per source."""

    query: tuple[str, ...] = ()
    profile: tuple[str, ...] = ()


class UnifiedContext(Immutable):
    """Everything the salience and scoring stages need about the situation."""

    __hash__ = None  # keyword_hits is a dict, so a context has no hash

    def __init__(
        self,
        profile: UserProfile,
        query: Query,
        composite_text: str,
        time_constraint_minutes: int | None,
        sentiment: SentimentTally,
        keyword_hits: dict[Dimension, SourceHits],
    ):
        fields = self.__dict__
        fields["profile"] = profile
        fields["query"] = query
        fields["composite_text"] = composite_text
        fields["time_constraint_minutes"] = time_constraint_minutes
        fields["sentiment"] = sentiment
        fields["keyword_hits"] = keyword_hits
        # Where scoring keeps this context's compiled situational checks, built
        # on its first appraisal; the context is immutable, so they never go stale.
        fields["_situational"] = None


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
        words = lexicons.dimension_words[info.id]
        hits[info.id] = SourceHits(
            query=_ordered_matches(query_tokens, words),
            profile=_ordered_matches(profile_tokens, words),
        )
    return UnifiedContext(
        profile=profile,
        query=query,
        composite_text=_composite_text(profile, query),
        time_constraint_minutes=parse_time_constraint(query.text),
        sentiment=tally_sentiment_tokens(query_tokens, lexicons),
        keyword_hits=hits,
    )
