"""Per-dimension candidate scoring, composite ranking, constraint filtering.

Every dimension score lands in [0, 1] and every nonzero score carries at
least one human-readable evidence string; the explanation stage quotes the
evidence verbatim. Composite scores accumulate in the fixed dimension order
so results are bit-reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .context import UnifiedContext, tally_sentiment_tokens, tokenize
from .errors import DuplicateCandidate, IncompleteVector, NoCandidates
from .lexicons import Lexicons
from .registry import DIMENSIONS, Dimension
from .salience import SalienceProfile


# Constants of the per-dimension scoring formulas.
URGENCY_TIME_WEIGHT = 0.7
URGENCY_KEYWORD_WEIGHT = 0.3
URGENCY_KEYWORD_SATURATION = 2.0
AGENCY_SATURATION = 3.0


def _interned(values) -> tuple[str, ...]:
    return tuple(map(sys.intern, values))


def _unique(values) -> tuple[str, ...]:
    return _interned(dict.fromkeys(values))


class CandidateFeatures(NamedTuple):
    """The query-independent tokens the scorers read, derived once per candidate.

    Tuples of interned strings, not sets: a catalog shares most of its
    vocabulary, so each candidate keeps only the tuples' pointers. A named
    tuple because defining a dataclass adds about 1 ms to every command's
    import.
    """

    terms: tuple[str, ...]  # unique tokens of name, description and tags
    tag_tokens: tuple[str, ...]  # unique tokens of the tags
    item_tokens: tuple[str, ...]  # unique tokens of the tags and ingredients
    items: tuple[str, ...]  # unique stripped, lower-cased, non-empty tags and ingredients
    tags_lower: tuple[str, ...]  # unique stripped, lower-cased tags
    description_tokens: tuple[str, ...]  # tokens of the description, in order


@dataclass(frozen=True)
class Candidate:
    """One recommendable item, e.g. a recipe."""

    id: str
    name: str
    description: str = ""
    prep_time_minutes: int = 1
    ingredients: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    customization_options: int = 0

    @classmethod
    def from_dict(cls, record: dict) -> "Candidate":
        """The candidate ``record`` holds, which ``CANDIDATE_SCHEMA`` has accepted."""
        return cls(
            id=record["id"],
            name=record["name"],
            description=record.get("description", ""),
            prep_time_minutes=int(record["prep_time_minutes"]),
            ingredients=tuple(record.get("ingredients", ())),
            tags=tuple(record.get("tags", ())),
            customization_options=int(record.get("customization_options", 0)),
        )

    @cached_property
    def features(self) -> CandidateFeatures:
        """Built on first use and kept: the candidate is immutable, so they never go stale.

        Each text field is tokenized once. A list field is tokenized as its
        items joined by spaces: tokens are runs of ``[a-z0-9]``, so the space
        only separates, and the tokens come out as the items' own, in order.
        """
        tags, values = self.tags, self.tags + self.ingredients
        description = tokenize(self.description)
        tag_tokens = tokenize(" ".join(tags))
        item_tokens = tag_tokens + tokenize(" ".join(self.ingredients))
        cleaned = (value.strip().lower() for value in values)
        return CandidateFeatures(
            terms=_unique((*tokenize(self.name), *description, *tag_tokens)),
            tag_tokens=_unique(tag_tokens),
            item_tokens=_unique(item_tokens),
            items=_unique(value for value in cleaned if value),
            tags_lower=_unique(tag.strip().lower() for tag in tags),
            description_tokens=_interned(description),
        )


@dataclass(frozen=True)
class AppraisalVector:
    """A candidate's per-dimension alignment scores with supporting evidence."""

    candidate_id: str
    scores: dict[Dimension, float]
    evidence: dict[Dimension, tuple[str, ...]]


@dataclass(frozen=True)
class RankedEntry:
    candidate_id: str
    composite: float
    vector: AppraisalVector
    candidate: Candidate


@dataclass(frozen=True)
class Exclusion:
    candidate_id: str
    reason: str


@dataclass(frozen=True)
class RankedList:
    entries: tuple[RankedEntry, ...]
    excluded: tuple[Exclusion, ...]


def _clamp01(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def _score_urgency(candidate, context, lexicons):
    limit = context.time_constraint_minutes
    prep = candidate.prep_time_minutes
    if limit is None:
        time_fit = 1.0
        time_evidence = f"no time limit given; prep time {prep} min"
    else:
        time_fit = _clamp01(1.0 - max(0, prep - limit) / limit)
        if prep <= limit:
            time_evidence = f"prep time {prep} min is within the {limit} minutes available"
        else:
            time_evidence = f"prep time {prep} min exceeds the {limit} minutes available"
    hits = sorted(lexicons.words_for(Dimension.URGENCY).intersection(candidate.features.terms))
    keyword_part = min(1.0, len(hits) / URGENCY_KEYWORD_SATURATION)
    score = _clamp01(
        URGENCY_TIME_WEIGHT * time_fit + URGENCY_KEYWORD_WEIGHT * keyword_part
    )
    evidence = [time_evidence]
    if hits:
        evidence.append("urgency keywords matched: " + ", ".join(hits))
    return score, tuple(evidence)


def _score_goal_relevance(candidate, context, lexicons):
    goals = context.profile.unique_goals
    if not goals:
        return 0.0, ()
    # A goal matches when each of its tokens is a term; most goals are one word.
    terms = candidate.features.terms
    matched = sorted(
        goal for goal, first, rest in context.profile.goal_tokens
        if first in terms and (not rest or all(token in terms for token in rest))
    )
    score = _clamp01(len(matched) / max(1, len(goals)))
    if not matched:
        return score, ()
    return score, ("matches your goals: " + ", ".join(matched),)


def _score_valence(candidate, context, lexicons):
    tally = tally_sentiment_tokens(candidate.features.description_tokens, lexicons)
    pos, neg = tally.positive_hits, tally.negative_hits
    score = _clamp01(0.5 + 0.5 * (pos - neg) / max(1, pos + neg))
    if tally.total == 0:
        evidence = "description sentiment: neutral (no lexicon matches)"
    else:
        words = ", ".join(tally.matched_words)
        evidence = f"description sentiment: {pos} positive, {neg} negative ({words})"
    return score, (evidence,)


def _score_predictability(candidate, context, lexicons):
    items = candidate.features.items
    familiar = context.profile.familiar_set
    shared = sorted(familiar.intersection(items))
    union = len(items) + len(familiar) - len(shared)
    if not union:
        return 0.0, ()
    score = _clamp01(len(shared) / union)
    if not shared:
        return score, ()
    return score, ("shares familiar items: " + ", ".join(shared),)


def _score_agency(candidate, context, lexicons):
    hits = sorted(lexicons.words_for(Dimension.AGENCY).intersection(candidate.features.tag_tokens))
    total = candidate.customization_options + len(hits)
    score = min(1.0, total / AGENCY_SATURATION)
    evidence: list[str] = []
    if candidate.customization_options > 0:
        plural = "" if candidate.customization_options == 1 else "s"
        evidence.append(f"{candidate.customization_options} documented customization option{plural}")
    if hits:
        evidence.append("customization tags matched: " + ", ".join(hits))
    return _clamp01(score), tuple(evidence)


def _constraint_satisfied(constraint: str, candidate: Candidate) -> tuple[bool, str]:
    """Check one dietary constraint tag against a candidate.

    Rules: the constraint is satisfied when it appears verbatim among the
    candidate's tags; otherwise a "no-<word>" or "<word>-free" constraint is
    satisfied when <word> appears nowhere in the tag/ingredient tokens; any
    other untagged constraint is a violation.
    """
    features = candidate.features
    if constraint in features.tags_lower:
        return True, ""
    banned = None
    if constraint.startswith("no-"):
        banned = constraint[3:]
    elif constraint.endswith("-free"):
        banned = constraint[: -len("-free")]
    if banned:
        if banned in features.item_tokens:
            return False, f"contains {banned}"
        return True, ""
    return False, f"not tagged {constraint}"


def _score_normative(candidate, context, lexicons):
    constraints = context.profile.unique_constraints
    if not constraints:
        return 1.0, ("no dietary constraints apply",)
    violations = []
    for constraint in constraints:
        ok, detail = _constraint_satisfied(constraint, candidate)
        if not ok:
            violations.append(f"violates '{constraint}': {detail}")
    if violations:
        return 0.0, tuple(violations)
    return 1.0, ("satisfies dietary constraints: " + ", ".join(constraints),)


# Each dimension's scorer; all take (candidate, context, lexicons).
_SCORERS = {
    Dimension.PREDICTABILITY_SURPRISE: _score_predictability,
    Dimension.GOAL_RELEVANCE: _score_goal_relevance,
    Dimension.VALENCE: _score_valence,
    Dimension.URGENCY: _score_urgency,
    Dimension.AGENCY: _score_agency,
    Dimension.NORMATIVE_SIGNIFICANCE: _score_normative,
}


def score_dimension(
    candidate: Candidate,
    dim: Dimension,
    context: UnifiedContext,
    lexicons: Lexicons,
) -> tuple[float, tuple[str, ...]]:
    """Score ``candidate`` on one dimension; returns (score in [0,1], evidence)."""
    return _SCORERS[dim](candidate, context, lexicons)


def appraisal_vector(
    candidate: Candidate,
    context: UnifiedContext,
    lexicons: Lexicons,
) -> AppraisalVector:
    """All six dimension scores for one candidate."""
    scores: dict[Dimension, float] = {}
    evidence: dict[Dimension, tuple[str, ...]] = {}
    for dim in DIMENSIONS:
        scores[dim], evidence[dim] = _SCORERS[dim](candidate, context, lexicons)
    return AppraisalVector(candidate_id=candidate.id, scores=scores, evidence=evidence)


def composite_score(vector: AppraisalVector, salience: SalienceProfile) -> float:
    """Salience-weighted sum of the vector's scores, in fixed dimension order.

    Clamped to [0, 1]: weights that sum to 1 can add up to just above it in
    floating point (0.4 + 0.2 + 0.3 + 0.1 is 1.0000000000000002).
    """
    scores, weights = vector.scores, salience.weights
    missing = [dim.value for dim in DIMENSIONS if dim not in scores or dim not in weights]
    if missing:
        raise IncompleteVector(f"missing dimensions: {missing}")
    total = 0.0
    for dim in DIMENSIONS:
        total += weights[dim] * scores[dim]
    return _clamp01(total)


def rank_vectors(
    vectors: list[AppraisalVector],
    candidates: list[Candidate],
    salience: SalienceProfile,
    filter_normative: bool = True,
) -> RankedList:
    """Rank precomputed vectors: filter normative violations, sort by composite.

    ``candidates[i]`` is the candidate ``vectors[i]`` scores. Entries sort by
    composite descending with candidate id as the tie-break; the excluded
    list keeps input order.
    """
    entries: list[RankedEntry] = []
    excluded: list[Exclusion] = []
    for vector, candidate in zip(vectors, candidates, strict=True):
        if filter_normative and vector.scores.get(Dimension.NORMATIVE_SIGNIFICANCE) == 0.0:
            reason = "; ".join(vector.evidence.get(Dimension.NORMATIVE_SIGNIFICANCE, ()))
            excluded.append(Exclusion(vector.candidate_id, reason or "normative violation"))
            continue
        entries.append(
            RankedEntry(
                vector.candidate_id, composite_score(vector, salience), vector, candidate
            )
        )
    entries.sort(key=lambda entry: (-entry.composite, entry.candidate_id))
    return RankedList(entries=tuple(entries), excluded=tuple(excluded))


def rank_candidates(
    candidates: list[Candidate],
    context: UnifiedContext,
    salience: SalienceProfile,
    *,
    lexicons: Lexicons,
    filter_normative: bool = True,
) -> RankedList:
    """Score and rank a candidate set against the context and salience profile."""
    if not candidates:
        raise NoCandidates("candidate set is empty")
    seen: set[str] = set()
    for candidate in candidates:
        if candidate.id in seen:
            raise DuplicateCandidate(f"duplicate candidate id: {candidate.id!r}")
        seen.add(candidate.id)
    vectors = [appraisal_vector(candidate, context, lexicons) for candidate in candidates]
    return rank_vectors(vectors, candidates, salience, filter_normative=filter_normative)
